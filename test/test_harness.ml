(* Tests for the evaluation harness: scenario construction, Table 1/2
   generation, figure text. *)

module Scenarios = Sekitei_harness.Scenarios
module Table2 = Sekitei_harness.Table2
module Figures = Sekitei_harness.Figures
module Media = Sekitei_domains.Media
module Planner = Sekitei_core.Planner
module Plan = Sekitei_core.Plan
module Replay = Sekitei_core.Replay
module T = Sekitei_network.Topology
module R = Sekitei_network.Routing

let contains hay needle =
  Sekitei_spec.Str_split.split_once hay needle <> None

(* ---------------- scenarios ---------------- *)

let test_tiny_shape () =
  let sc = Scenarios.tiny () in
  Alcotest.(check int) "2 nodes" 2 (T.node_count sc.Scenarios.topo);
  Alcotest.(check (float 0.)) "70-unit link" 70.
    (T.link_resource sc.Scenarios.topo 0 "lbw")

let test_small_shape () =
  let sc = Scenarios.small () in
  Alcotest.(check int) "6 nodes" 6 (T.node_count sc.Scenarios.topo);
  Alcotest.(check (option int)) "4-link path" (Some 4)
    (R.hop_distance sc.Scenarios.topo sc.Scenarios.server sc.Scenarios.client);
  (* exactly one WAN link on the path *)
  match R.shortest_path sc.Scenarios.topo sc.Scenarios.server sc.Scenarios.client with
  | Some p ->
      let wan =
        List.filter
          (fun lid -> (T.get_link sc.Scenarios.topo lid).T.kind = T.Wan)
          p.R.path_links
      in
      Alcotest.(check int) "one WAN hop" 1 (List.length wan)
  | None -> Alcotest.fail "no path"

let test_large_shape () =
  let sc = Scenarios.large () in
  Alcotest.(check int) "93 nodes" 93 (T.node_count sc.Scenarios.topo);
  Alcotest.(check bool) "connected" true (T.is_connected sc.Scenarios.topo);
  Alcotest.(check (option int)) "LAN-WAN-WAN-LAN path" (Some 4)
    (R.hop_distance sc.Scenarios.topo sc.Scenarios.server sc.Scenarios.client);
  match R.shortest_path sc.Scenarios.topo sc.Scenarios.server sc.Scenarios.client with
  | Some p ->
      let kinds =
        List.map (fun lid -> (T.get_link sc.Scenarios.topo lid).T.kind) p.R.path_links
      in
      Alcotest.(check bool) "LAN,WAN,WAN,LAN" true
        (kinds = [ T.Lan; T.Wan; T.Wan; T.Lan ])
  | None -> Alcotest.fail "no path"

let test_large_deterministic () =
  let a = Scenarios.large () and b = Scenarios.large () in
  Alcotest.(check int) "same server" a.Scenarios.server b.Scenarios.server;
  Alcotest.(check int) "same client" a.Scenarios.client b.Scenarios.client;
  Alcotest.(check int) "same links"
    (T.link_count a.Scenarios.topo) (T.link_count b.Scenarios.topo)

let test_with_weights () =
  let sc = Scenarios.with_weights ~cross_weight:2. ~place_weight:0.5 (Scenarios.tiny ()) in
  (* heavier crossings roughly double the plan bound's crossing part *)
  let o =
    Planner.plan
      (Planner.request sc.Scenarios.topo sc.Scenarios.app
         ~leveling:(Media.leveling Media.C sc.Scenarios.app))
  in
  match o.Planner.result with
  | Ok p -> Alcotest.(check bool) "bound changed" true (p.Plan.cost_lb <> 52.45)
  | Error _ -> Alcotest.fail "should still plan"

(* ---------------- table 2 ---------------- *)

let test_table2_cell_tiny () =
  let row = Table2.run_cell (Scenarios.tiny ()) Media.C in
  (match row.Table2.plan with
  | Some p -> Alcotest.(check int) "7 actions" 7 (Plan.length p)
  | None -> Alcotest.fail "expected plan");
  Alcotest.(check string) "network name" "Tiny" row.Table2.network

let test_table2_run_and_render () =
  let rows =
    Table2.run
      ~networks:[ Scenarios.tiny () ]
      ~levels:[ Media.A; Media.B; Media.C ]
      ()
  in
  Alcotest.(check int) "three rows" 3 (List.length rows);
  let rendered = Table2.render rows in
  Alcotest.(check bool) "mentions Tiny" true (contains rendered "Tiny");
  Alcotest.(check bool) "A shows no plan" true (contains rendered "no plan");
  Alcotest.(check bool) "has headers" true (contains rendered "reserved LAN bw")

let test_row_summary () =
  let row = Table2.run_cell (Scenarios.tiny ()) Media.A in
  Alcotest.(check bool) "summary mentions no plan" true
    (contains (Table2.row_summary row) "no plan")

(* ---------------- figures ---------------- *)

let test_table1_text () =
  let t = Figures.table1 () in
  List.iter
    (fun needle -> Alcotest.(check bool) needle true (contains t needle))
    [ "[0,inf)"; "[90,100)"; "[31,62)"; "Table 1" ]

let test_fig3_4_text () =
  let t = Figures.fig3_4 () in
  Alcotest.(check bool) "greedy fails" true (contains t "NO PLAN");
  Alcotest.(check bool) "7-action plan" true (contains t "7 actions");
  Alcotest.(check bool) "paper wording" true (contains t "place Splitter on n0")

let test_fig5_text () =
  let t = Figures.fig5 ~weights:[ 0.5; 2.0 ] () in
  Alcotest.(check bool) "direct route appears" true (contains t "3 links direct");
  Alcotest.(check bool) "zip route appears" true (contains t "Zip/Unzip")

let test_fig9_text () =
  let t = Figures.fig9 () in
  Alcotest.(check bool) "10 actions" true (contains t "10 actions");
  Alcotest.(check bool) "13 actions" true (contains t "13 actions")

let test_fig10_text () =
  let t = Figures.fig10 () in
  Alcotest.(check bool) "93 nodes" true (contains t "nodes: 93");
  let dot = Figures.fig10 ~dot:true () in
  Alcotest.(check bool) "dot graph" true (contains dot "graph topology")

let test_ablation_text () =
  let t = Figures.postprocess_ablation () in
  Alcotest.(check bool) "throttles" true (contains t "post-processing throttles");
  Alcotest.(check bool) "levels required" true (contains t "resource levels are required")

(* ---------------- csv export ---------------- *)

let test_csv_export () =
  let rows =
    Table2.run ~networks:[ Scenarios.tiny () ] ~levels:[ Media.A; Media.C ] ()
  in
  let csv = Sekitei_harness.Csv_export.table2_csv rows in
  let lines = String.split_on_char '\n' csv |> List.filter (fun l -> l <> "") in
  Alcotest.(check int) "header + 2 rows" 3 (List.length lines);
  Alcotest.(check bool) "header first" true
    (contains (List.hd lines) "network,levels,found");
  Alcotest.(check bool) "A row marks no plan" true
    (List.exists (fun l -> contains l "Tiny,A,0") lines);
  Alcotest.(check bool) "C row found with 7 actions" true
    (List.exists (fun l -> contains l "Tiny,C,1,52.45,7") lines);
  (* every data line has the header's arity *)
  let arity l = List.length (String.split_on_char ',' l) in
  List.iter
    (fun l -> Alcotest.(check int) "arity" (arity (List.hd lines)) (arity l))
    lines

let suite =
  [
    ("tiny shape", `Quick, test_tiny_shape);
    ("small shape", `Quick, test_small_shape);
    ("large shape", `Quick, test_large_shape);
    ("large deterministic", `Quick, test_large_deterministic);
    ("with weights", `Quick, test_with_weights);
    ("table2 cell", `Quick, test_table2_cell_tiny);
    ("table2 run/render", `Quick, test_table2_run_and_render);
    ("row summary", `Quick, test_row_summary);
    ("table1 text", `Quick, test_table1_text);
    ("fig3-4 text", `Quick, test_fig3_4_text);
    ("fig5 text", `Quick, test_fig5_text);
    ("fig9 text", `Quick, test_fig9_text);
    ("fig10 text", `Quick, test_fig10_text);
    ("ablation text", `Quick, test_ablation_text);
    ("csv export", `Quick, test_csv_export);
  ]

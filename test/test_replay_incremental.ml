(* Tests for the incremental-replay search engine:

   - the Replay snapshot/extend API agrees with from-scratch Replay.run
     over random action tails (accept/reject outcome AND metrics);
   - extend is persistent (branching from one parent never cross-talks);
   - RG duplicate detection never changes the returned plan cost on the
     Tiny/Small scenarios. *)

module Q = QCheck
module Compile = Sekitei_core.Compile
module Problem = Sekitei_core.Problem
module Action = Sekitei_core.Action
module Replay = Sekitei_core.Replay
module Plrg = Sekitei_core.Plrg
module Slrg = Sekitei_core.Slrg
module Rg = Sekitei_core.Rg
module Media = Sekitei_domains.Media
module Scenarios = Sekitei_harness.Scenarios
module G = Sekitei_network.Generators
module T = Sekitei_network.Topology

let tiny_pb level =
  let app = Media.app ~server:0 ~client:1 () in
  let leveling = Media.leveling level app in
  Compile.compile (G.line_kinds [ T.Wan ]) app leveling

(* ---------------- extend == run equivalence ---------------- *)

let run_incremental pb ~mode tail =
  let rec go rs = function
    | [] -> Ok (Replay.rstate_metrics pb rs)
    | a :: rest -> (
        match Replay.extend pb ~mode rs a with
        | Ok rs' -> go rs' rest
        | Error f -> Error f)
  in
  go (Replay.initial pb) tail

let same_float a b = (Float.is_nan a && Float.is_nan b) || a = b

let same_metrics (a : Replay.metrics) (b : Replay.metrics) =
  same_float a.Replay.realized_cost b.Replay.realized_cost
  && same_float a.Replay.lan_peak b.Replay.lan_peak
  && same_float a.Replay.wan_peak b.Replay.wan_peak
  && same_float a.Replay.lan_total b.Replay.lan_total
  && same_float a.Replay.wan_total b.Replay.wan_total
  && a.Replay.node_cpu_used = b.Replay.node_cpu_used
  && a.Replay.link_used = b.Replay.link_used
  && a.Replay.delivered = b.Replay.delivered

let same_outcome from_scratch incremental =
  match (from_scratch, incremental) with
  | Ok m1, Ok m2 -> same_metrics m1 m2
  | Error (f1 : Replay.failure), Error f2 ->
      f1.Replay.failed_index = f2.Replay.failed_index
      && f1.Replay.failed_action = f2.Replay.failed_action
      && f1.Replay.reason = f2.Replay.reason
  | _ -> false

let tail_gen pb =
  let n = Array.length pb.Problem.actions in
  Q.Gen.(
    map
      (List.map (fun i -> pb.Problem.actions.(i)))
      (list_size (0 -- 8) (int_bound (n - 1))))

let arb_tail pb =
  Q.make
    ~print:(fun tail ->
      String.concat "; " (List.map (fun a -> a.Action.label) tail))
    (tail_gen pb)

let prop_equiv level mode mode_name =
  let pb = tiny_pb level in
  Q.Test.make ~count:500
    ~name:(Printf.sprintf "extend == run (%s)" mode_name)
    (arb_tail pb)
    (fun tail ->
      same_outcome (Replay.run pb ~mode tail) (run_incremental pb ~mode tail))

let prop_equiv_from_init = prop_equiv Media.C Replay.From_init "from-init, C"

let prop_equiv_regression =
  prop_equiv Media.C Replay.Regression "regression, C"

let prop_equiv_greedy =
  prop_equiv Media.A Replay.Regression "greedy A, regression"

let prop_equiv_regression_e =
  prop_equiv Media.E Replay.Regression "regression, E"

(* ---------------- persistence of parent states ---------------- *)

let test_extend_persistent () =
  let pb = tiny_pb Media.C in
  let parent = Replay.initial pb in
  let splitter =
    Array.to_list pb.Problem.actions
    |> List.filter (fun (a : Action.t) ->
           match a.Action.kind with
           | Action.Place { comp; node = 0 } ->
               Problem.comp_index pb "Splitter" = comp
           | _ -> false)
    |> List.hd
  in
  let snapshot rs = Replay.rstate_metrics pb rs in
  let before = snapshot parent in
  (match Replay.extend pb ~mode:Replay.Regression parent splitter with
  | Ok child ->
      Alcotest.(check bool)
        "child advanced" true
        (Replay.rstate_length child = 1 && Replay.rstate_cost child >= 0.)
  | Error f -> Alcotest.failf "extend failed: %s" f.Replay.reason);
  (* The parent must be untouched and re-extensible with identical results. *)
  Alcotest.(check bool) "parent unchanged" true (same_metrics before (snapshot parent));
  match
    ( Replay.extend pb ~mode:Replay.Regression parent splitter,
      Replay.extend pb ~mode:Replay.Regression parent splitter )
  with
  | Ok a, Ok b ->
      Alcotest.(check bool)
        "re-extension deterministic" true
        (same_metrics (Replay.rstate_metrics pb a) (Replay.rstate_metrics pb b))
  | _ -> Alcotest.fail "re-extension failed"

(* ---------------- duplicate detection preserves plan cost ------------ *)

let search_cost ~dedup pb =
  let plrg = Plrg.build pb in
  let slrg = Slrg.create pb plrg in
  match Rg.search ~dedup pb plrg slrg with
  | Rg.Solution (_, _, cost), _ -> Some cost
  | (Rg.Exhausted | Rg.Budget_exceeded _ | Rg.Deadline_reached _), _ -> None

let check_dedup_neutral name pb expected =
  let with_dedup = search_cost ~dedup:true pb in
  let without = search_cost ~dedup:false pb in
  Alcotest.(check (option (float 1e-9)))
    (name ^ ": dedup on == off") without with_dedup;
  Alcotest.(check (option (float 1e-9))) (name ^ ": cost") expected with_dedup

let test_dedup_tiny () =
  check_dedup_neutral "tiny-C" (tiny_pb Media.C) (Some 52.45)

let small_c_pb () =
  let sc = Scenarios.small () in
  let leveling = Media.leveling Media.C sc.Scenarios.app in
  Compile.compile sc.Scenarios.topo sc.Scenarios.app leveling

let test_dedup_small () = check_dedup_neutral "small-C" (small_c_pb ()) (Some 76.)

(* Duplicates are pruned when they reach the top of the open list, and on
   Tiny-C none does before the goal; Small-C prunes dozens. *)
let test_dedup_counts_duplicates () =
  let pb = small_c_pb () in
  let plrg = Plrg.build pb in
  let slrg = Slrg.create pb plrg in
  let _, s = Rg.search ~dedup:true pb plrg slrg in
  Alcotest.(check bool) "duplicates detected" true (s.Rg.duplicates > 0);
  let slrg' = Slrg.create pb plrg in
  let _, s' = Rg.search ~dedup:false pb plrg slrg' in
  Alcotest.(check int) "dedup off counts none" 0 s'.Rg.duplicates;
  Alcotest.(check bool)
    "dedup shrinks the search" true
    (s.Rg.created <= s'.Rg.created)

let suite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_equiv_from_init;
      prop_equiv_regression;
      prop_equiv_greedy;
      prop_equiv_regression_e;
    ]
  @ [
      ("extend is persistent", `Quick, test_extend_persistent);
      ("dedup neutral on tiny-C", `Quick, test_dedup_tiny);
      ("dedup neutral on small-C", `Quick, test_dedup_small);
      ("dedup counts duplicates", `Quick, test_dedup_counts_duplicates);
    ]

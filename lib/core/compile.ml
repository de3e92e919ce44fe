module I = Sekitei_util.Interval
module Deadline = Sekitei_util.Deadline
module Expr = Sekitei_expr.Expr
module Topology = Sekitei_network.Topology
module Model = Sekitei_spec.Model
module Leveling = Sekitei_spec.Leveling
module Telemetry = Sekitei_telemetry.Telemetry

exception Compile_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Compile_error s)) fmt

let split_var v =
  match String.index_opt v '.' with
  | Some dot ->
      (String.sub v 0 dot, String.sub v (dot + 1) (String.length v - dot - 1))
  | None -> ("", v)

let rec cartesian = function
  | [] -> [ [] ]
  | xs :: rest ->
      let tails = cartesian rest in
      List.concat_map (fun x -> List.map (fun tl -> x :: tl) tails) xs

(* ------------------------------------------------------------------ *)
(* Goal preprocessing: Available goals become sink components          *)
(* ------------------------------------------------------------------ *)

let rewrite_goals (app : Model.app) =
  let counter = ref 0 in
  let extra_comps = ref [] in
  let restrictions = ref [] in
  let goals =
    List.map
      (fun g ->
        match g with
        | Model.Placed _ -> g
        | Model.Available (iface, prop, node, minv) ->
            incr counter;
            let name = Printf.sprintf "__goal%d_%s" !counter iface in
            let sink =
              Model.component ~requires:[ iface ]
                ~conditions:
                  [ Expr.Cmp (Expr.Ge, Expr.Var (Model.qualified iface prop),
                              Expr.Const minv) ]
                ~place_cost:(Expr.Const 0.) name
            in
            extra_comps := sink :: !extra_comps;
            restrictions := (name, node) :: !restrictions;
            Model.Placed (name, node))
      app.goals
  in
  ( { app with components = app.components @ List.rev !extra_comps; goals },
    !restrictions )

(* ------------------------------------------------------------------ *)
(* Level machinery                                                     *)
(* ------------------------------------------------------------------ *)

(* Levels annotated with their index. *)
let indexed levels = List.mapi (fun i ivl -> (i, ivl)) levels

(* Which levels an achieved proposition implies, given the tag. *)
let implied_levels tag n_levels level =
  match tag with
  | Model.Degradable -> List.init (level + 1) Fun.id
  | Model.Upgradable -> List.init (n_levels - level) (fun k -> level + k)
  | Model.Neither -> [ level ]

(* ------------------------------------------------------------------ *)
(* Compilation proper                                                  *)
(* ------------------------------------------------------------------ *)

(* Incremental-recompilation hooks.  Grounding is organized in groups —
   one per (placeable component, node) and one per (interface, link,
   direction) — whose content depends only on the group's own site: node
   capacities for placements, link capacities and the (stable) endpoint
   names for crossings.  When a hook returns [Some acts], the group's
   actions are copied from a previous compilation (with freshly assigned
   sequential act_ids) instead of being re-grounded; cold compilation
   uses {!no_reuse}.  Groups are visited in a canonical order either way,
   so a recompile with every hook declining is byte-identical to a cold
   compile. *)
type reuse = {
  reuse_place : comp:int -> node:int -> Action.t list option;
  reuse_cross :
    iface:int -> link_id:int -> src:int -> dst:int -> Action.t list option;
}

let no_reuse =
  {
    reuse_place = (fun ~comp:_ ~node:_ -> None);
    reuse_cross = (fun ~iface:_ ~link_id:_ ~src:_ ~dst:_ -> None);
  }

let ground_with ~adjust ~telemetry ~deadline ~prune ~(reuse : reuse) topo
    (app0 : Model.app) leveling =
  let app, restrictions = rewrite_goals app0 in
  let ifaces = Array.of_list app.interfaces in
  let comps = Array.of_list app.components in
  let n_nodes = Topology.node_count topo in
  let iface_idx name =
    let rec go i =
      if i >= Array.length ifaces then fail "unknown interface %s" name
      else if String.equal ifaces.(i).Model.iface_name name then i
      else go (i + 1)
    in
    go 0
  in
  let comp_idx name =
    let rec go i =
      if i >= Array.length comps then fail "unknown component %s" name
      else if String.equal comps.(i).Model.comp_name name then i
      else go (i + 1)
    in
    go 0
  in
  let primary i = (Model.primary_property ifaces.(i)).Model.prop_name in
  let tag_of i = (Model.primary_property ifaces.(i)).Model.prop_tag in
  let iface_levels =
    Array.init (Array.length ifaces) (fun i ->
        Array.of_list
          (Leveling.iface_levels leveling ifaces.(i).Model.iface_name (primary i)))
  in
  let iface_tags = Array.init (Array.length ifaces) tag_of in
  let props =
    Prop.create ~n_comps:(Array.length comps) ~n_nodes
      ~levels_per_iface:(Array.map Array.length iface_levels)
  in
  let node_cap n r = try Topology.node_resource topo n r with Not_found -> 0. in
  let link_cap l r = try Topology.link_resource topo l r with Not_found -> 0. in

  let comp_allowed_node =
    Array.init (Array.length comps) (fun c ->
        List.assoc_opt comps.(c).Model.comp_name restrictions)
  in

  (* ---------------- initial state ---------------- *)
  let init = Array.make (Prop.count props) false in
  let init_consumed = ref [] in
  let sources = ref [] in
  List.iter
    (fun (comp_name, node) ->
      let c = comp_idx comp_name in
      let comp = comps.(c) in
      if comp.Model.requires <> [] then
        fail "pre-placed component %s has requirements" comp_name;
      let env v =
        match split_var v with
        | "node", r -> node_cap node r
        | _ -> raise (Expr.Unbound_variable v)
      in
      List.iter
        (fun cond ->
          if not (Expr.holds ~env cond) then
            fail "pre-placed component %s violates its conditions on node %d"
              comp_name node)
        comp.Model.conditions;
      List.iter
        (fun (r, e) ->
          let amount = Expr.eval ~env e in
          if amount > node_cap node r +. 1e-9 then
            fail "pre-placed component %s exceeds %s on node %d" comp_name r node;
          init_consumed := (node, r, amount) :: !init_consumed)
        comp.Model.consumes;
      init.(Prop.placed_id props ~comp:c ~node) <- true;
      List.iter
        (fun prov ->
          let i = iface_idx prov in
          let prim = primary i in
          let value_of prop_name =
            match
              List.find_opt
                (fun (fi, fp, _) ->
                  String.equal fi prov && String.equal fp prop_name)
                comp.Model.effects
            with
            | Some (_, _, e) -> Some (Expr.eval ~env e)
            | None -> None
          in
          let v =
            match value_of prim with
            | Some v -> v
            | None -> fail "pre-placed %s sets no %s.%s" comp_name prov prim
          in
          let tag = iface_tags.(i) in
          let src_interval =
            match tag with
            | Model.Degradable -> I.of_points [ 0.; v ]
            | Model.Neither -> I.point v
            | Model.Upgradable ->
                if Float.is_finite v then I.make v Float.infinity else I.point v
          in
          let src_secondary =
            List.filter_map
              (fun (p : Model.property) ->
                if String.equal p.Model.prop_name prim then None
                else
                  Some
                    ( p.Model.prop_name,
                      Option.value (value_of p.Model.prop_name)
                        ~default:p.Model.prop_default ))
              ifaces.(i).Model.properties
          in
          sources :=
            { Problem.src_iface = i; src_node = node; src_interval; src_secondary }
            :: !sources;
          Array.iteri
            (fun lvl ivl ->
              let available =
                match tag with
                | Model.Degradable -> I.lo ivl <= v
                | Model.Neither -> I.mem v ivl
                | Model.Upgradable -> (not (I.is_point ivl)) && I.hi ivl > v
              in
              if available then
                init.(Prop.avail_id props ~iface:i ~node ~level:lvl) <- true)
            iface_levels.(i))
        comp.Model.provides)
    app.pre_placed;

  (* ---------------- action construction ---------------- *)
  let actions = ref [] in
  let next_id = ref 0 in
  let emit ~kind ~pre ~add ~cost_lb ~in_levels ~out_levels ~checked_node
      ~checked_link ~label =
    if cost_lb < 0. || Float.is_nan cost_lb then
      fail "negative cost bound for action %s" label;
    let cost_extra =
      match kind with
      | Action.Place { comp; node } ->
          adjust ~comp:comps.(comp).Model.comp_name ~node
      | Action.Cross _ -> 0.
    in
    (* Adjustments may discount, but never below zero total. *)
    let cost_extra = Float.max cost_extra (-.cost_lb) in
    let cost_lb = cost_lb +. cost_extra in
    let add_closure =
      List.concat_map
        (fun pid ->
          match Prop.of_id props pid with
          | Prop.Placed _ -> [ pid ]
          | Prop.Avail (i, n, l) ->
              List.map
                (fun l' -> Prop.avail_id props ~iface:i ~node:n ~level:l')
                (implied_levels iface_tags.(i) (Array.length iface_levels.(i)) l))
        add
      |> List.sort_uniq compare
    in
    actions :=
      {
        Action.act_id = !next_id;
        kind;
        pre = Array.of_list pre;
        add = Array.of_list add;
        add_closure = Array.of_list add_closure;
        cost_lb;
        cost_extra;
        in_levels = Array.of_list in_levels;
        out_levels = Array.of_list out_levels;
        checked_node = Array.of_list checked_node;
        checked_link = Array.of_list checked_link;
        label;
      }
      :: !actions;
    incr next_id
  in

  (* Adopt an action from a previous compilation verbatim, fresh id.  The
     record copy shares the pre/add/closure arrays with the old problem —
     they are immutable and proposition ids are stable across reuses. *)
  let emit_copy (a : Action.t) =
    actions := { a with Action.act_id = !next_id } :: !actions;
    incr next_id
  in

  let lo_env_of ivl_env v = I.lo (ivl_env v) in

  (* Leveled grounding: everything from here to the [actions] array is
     schema replication over level assignments plus pruning — the
     "leveling" sub-span of compilation. *)
  let sp_leveling = Telemetry.begin_span telemetry "leveling" in

  (* ----- place actions ----- *)
  Array.iteri
    (fun c (comp : Model.component) ->
      if comp.Model.placeable then
        for node = 0 to n_nodes - 1 do
          let allowed =
            match comp_allowed_node.(c) with
            | Some only -> node = only
            | None -> true
          in
          if allowed then begin
            Deadline.guard deadline ~phase:"compile";
            match reuse.reuse_place ~comp:c ~node with
            | Some olds -> List.iter emit_copy olds
            | None ->
            let req = List.map iface_idx comp.Model.requires in
            (* Node resources this component touches. *)
            let node_resources =
              let mentioned = Hashtbl.create 4 in
              List.iter (fun (r, _) -> Hashtbl.replace mentioned r ()) comp.Model.consumes;
              let scan_vars vs =
                List.iter
                  (fun v ->
                    match split_var v with
                    | "node", r -> Hashtbl.replace mentioned r ()
                    | _ -> ())
                  vs
              in
              List.iter (fun cond -> scan_vars (Expr.cond_vars cond)) comp.Model.conditions;
              List.iter (fun (_, _, e) -> scan_vars (Expr.vars e)) comp.Model.effects;
              List.iter (fun (_, e) -> scan_vars (Expr.vars e)) comp.Model.consumes;
              scan_vars (Expr.vars comp.Model.place_cost);
              Hashtbl.fold (fun r () acc -> r :: acc) mentioned [] |> List.sort compare
            in
            (* Only non-trivially leveled resources contribute checked-level
               choices; unleveled ones default to full availability in the
               environment below and are never runtime-checked. *)
            let node_level_choices =
              List.filter_map
                (fun r ->
                  let cap = node_cap node r in
                  match Leveling.node_levels leveling r with
                  | [ single ] when I.equal single I.full -> None
                  | lvls ->
                      Some
                        (List.filter_map
                           (fun ivl ->
                             Option.map
                               (fun x -> (r, x))
                               (I.inter ivl (I.of_points [ 0.; cap ])))
                           lvls))
                node_resources
            in
            let in_choices =
              List.map
                (fun i -> List.map (fun (l, ivl) -> (i, l, ivl)) (indexed (Array.to_list iface_levels.(i))))
                req
            in
            List.iter
              (fun in_combo ->
                List.iter
                  (fun checked_node ->
                    let ivl_env v =
                      match split_var v with
                      | "node", r -> (
                          match List.assoc_opt r checked_node with
                          | Some ivl -> ivl
                          | None -> I.point (node_cap node r))
                      | iface_name, prop_name -> (
                          match
                            List.find_opt
                              (fun (i, _, _) ->
                                String.equal ifaces.(i).Model.iface_name iface_name)
                              in_combo
                          with
                          | Some (i, _, ivl) ->
                              if String.equal prop_name (primary i) then ivl else I.full
                          | None -> raise (Expr.Unbound_variable v))
                    in
                    let conditions_ok =
                      List.for_all (fun cond -> Expr.sat ~env:ivl_env cond)
                        comp.Model.conditions
                    in
                    let consumption_ok =
                      List.for_all
                        (fun (r, e) ->
                          match Expr.eval_interval ~env:ivl_env e with
                          | ivl -> I.lo ivl <= node_cap node r +. 1e-9
                          | exception Division_by_zero -> false)
                        comp.Model.consumes
                    in
                    if conditions_ok && consumption_ok then begin
                      (* Output level candidates per provided interface. *)
                      let out_choices =
                        List.map
                          (fun prov ->
                            let o = iface_idx prov in
                            let prim = primary o in
                            let effect =
                              match
                                List.find_opt
                                  (fun (fi, fp, _) ->
                                    String.equal fi prov && String.equal fp prim)
                                  comp.Model.effects
                              with
                              | Some (_, _, e) -> e
                              | None -> fail "component %s sets no %s.%s"
                                          comp.Model.comp_name prov prim
                            in
                            let out_ivl = Expr.eval_interval ~env:ivl_env effect in
                            List.filter_map
                              (fun (l, lvl_ivl) ->
                                Option.map
                                  (fun achieved -> (o, l, achieved))
                                  (I.inter lvl_ivl out_ivl))
                              (indexed (Array.to_list iface_levels.(o))))
                          comp.Model.provides
                      in
                      List.iter
                        (fun out_combo ->
                          let cost_lb =
                            Expr.eval ~env:(lo_env_of ivl_env) comp.Model.place_cost
                          in
                          let pre =
                            List.map
                              (fun (i, l, _) ->
                                Prop.avail_id props ~iface:i ~node ~level:l)
                              in_combo
                          in
                          let add =
                            Prop.placed_id props ~comp:c ~node
                            :: List.map
                                 (fun (o, l, _) ->
                                   Prop.avail_id props ~iface:o ~node ~level:l)
                                 out_combo
                          in
                          let label =
                            Printf.sprintf "place(%s,%s)%s" comp.Model.comp_name
                              (Topology.get_node topo node).Topology.node_name
                              (if in_combo = [] then ""
                               else
                                 "["
                                 ^ String.concat ","
                                     (List.map
                                        (fun (i, l, _) ->
                                          Printf.sprintf "%s:%d"
                                            ifaces.(i).Model.iface_name l)
                                        in_combo)
                                 ^ "]")
                          in
                          emit
                            ~kind:(Action.Place { comp = c; node })
                            ~pre ~add ~cost_lb
                            ~in_levels:(List.map (fun (i, _, ivl) -> (i, ivl)) in_combo)
                            ~out_levels:(List.map (fun (o, _, ivl) -> (o, ivl)) out_combo)
                            ~checked_node ~checked_link:[] ~label)
                        (cartesian out_choices)
                    end)
                  (cartesian node_level_choices))
              (cartesian in_choices)
          end
        done)
    comps;

  (* ----- cross actions ----- *)
  Array.iteri
    (fun i (iface : Model.iface) ->
      let prim = primary i in
      let link_resources =
        let mentioned = Hashtbl.create 4 in
        List.iter (fun (r, _) -> Hashtbl.replace mentioned r ()) iface.Model.cross_consumes;
        let scan_vars vs =
          List.iter
            (fun v ->
              match split_var v with
              | "link", r -> Hashtbl.replace mentioned r ()
              | _ -> ())
            vs
        in
        List.iter (fun (_, e) -> scan_vars (Expr.vars e)) iface.Model.cross_transforms;
        List.iter (fun (_, e) -> scan_vars (Expr.vars e)) iface.Model.cross_consumes;
        List.iter (fun c -> scan_vars (Expr.cond_vars c)) iface.Model.cross_conditions;
        scan_vars (Expr.vars iface.Model.cross_cost);
        Hashtbl.fold (fun r () acc -> r :: acc) mentioned [] |> List.sort compare
      in
      Array.iter
        (fun (l : Topology.link) ->
          let a, b = l.Topology.ends in
          let link_level_choices =
            List.filter_map
              (fun r ->
                let cap = link_cap l.Topology.link_id r in
                match Leveling.link_levels leveling r with
                | [ single ] when I.equal single I.full -> None
                | lvls ->
                    Some
                      (List.filter_map
                         (fun ivl ->
                           Option.map
                             (fun x -> (r, x))
                             (I.inter ivl (I.of_points [ 0.; cap ])))
                         lvls))
              link_resources
          in
          List.iter
            (fun (src, dst) ->
              Deadline.guard deadline ~phase:"compile";
              match
                reuse.reuse_cross ~iface:i ~link_id:l.Topology.link_id ~src ~dst
              with
              | Some olds -> List.iter emit_copy olds
              | None ->
              List.iter
                (fun (in_lvl, in_ivl) ->
                  List.iter
                    (fun checked_link ->
                      let ivl_env v =
                        match split_var v with
                        | "link", r -> (
                            match List.assoc_opt r checked_link with
                            | Some ivl -> ivl
                            | None -> I.point (link_cap l.Topology.link_id r))
                        | "", p ->
                            if String.equal p prim then in_ivl else I.full
                        | _ -> raise (Expr.Unbound_variable v)
                      in
                      let conditions_ok =
                        List.for_all (fun c -> Expr.sat ~env:ivl_env c)
                          iface.Model.cross_conditions
                      in
                      let consumption_ok =
                        List.for_all
                          (fun (r, e) ->
                            match Expr.eval_interval ~env:ivl_env e with
                            | ivl ->
                                I.lo ivl <= link_cap l.Topology.link_id r +. 1e-9
                            | exception Division_by_zero -> false)
                          iface.Model.cross_consumes
                      in
                      if conditions_ok && consumption_ok then begin
                        let transform =
                          match List.assoc_opt prim iface.Model.cross_transforms with
                          | Some e -> e
                          | None -> Expr.Var prim (* unchanged by crossing *)
                        in
                        let out_ivl = Expr.eval_interval ~env:ivl_env transform in
                        let candidates =
                          List.filter_map
                            (fun (lvl, lvl_ivl) ->
                              match I.inter lvl_ivl out_ivl with
                              | None -> None
                              | Some achieved ->
                                  (* Dominance pruning for monotone streams:
                                     entering at a higher level than what
                                     comes out is never useful. *)
                                  let dominated =
                                    match iface_tags.(i) with
                                    | Model.Degradable -> lvl < in_lvl
                                    | Model.Upgradable -> lvl > in_lvl
                                    | Model.Neither -> false
                                  in
                                  if dominated then None
                                  else Some (lvl, achieved))
                            (indexed (Array.to_list iface_levels.(i)))
                        in
                        List.iter
                          (fun (out_lvl, achieved) ->
                            let cost_lb =
                              Expr.eval ~env:(lo_env_of ivl_env)
                                iface.Model.cross_cost
                            in
                            let label =
                              Printf.sprintf "cross(%s,%s->%s)[%d]"
                                iface.Model.iface_name
                                (Topology.get_node topo src).Topology.node_name
                                (Topology.get_node topo dst).Topology.node_name
                                in_lvl
                            in
                            emit
                              ~kind:
                                (Action.Cross
                                   { iface = i; link = l.Topology.link_id; src; dst })
                              ~pre:[ Prop.avail_id props ~iface:i ~node:src ~level:in_lvl ]
                              ~add:[ Prop.avail_id props ~iface:i ~node:dst ~level:out_lvl ]
                              ~cost_lb
                              ~in_levels:[ (i, in_ivl) ]
                              ~out_levels:[ (i, achieved) ]
                              ~checked_node:[] ~checked_link ~label)
                          candidates
                      end)
                    (cartesian link_level_choices))
                (indexed (Array.to_list iface_levels.(i))))
            [ (a, b); (b, a) ])
        (Topology.links topo))
    ifaces;

  let actions = Array.of_list (List.rev !actions) in
  ignore
    (Telemetry.end_span telemetry sp_leveling
       ~attrs:[ ("actions", Telemetry.Int (Array.length actions)) ]);

  (* Network-ignorant maximum achievable value per interface: source
     capacities pushed through every component effect to a fixpoint (the
     paper's greedy "maximum possible utilization").  Computed before the
     dead-action pruning below, which consumes it. *)
  let iface_max = Array.make (Array.length ifaces) Float.neg_infinity in
  List.iter
    (fun (s : Problem.source) ->
      iface_max.(s.src_iface) <- Float.max iface_max.(s.src_iface) (I.hi s.src_interval))
    !sources;
  let changed = ref true in
  let rounds = ref 0 in
  while !changed && !rounds < 2 * Array.length ifaces do
    changed := false;
    incr rounds;
    Array.iter
      (fun (comp : Model.component) ->
        let inputs_known =
          List.for_all
            (fun req -> iface_max.(iface_idx req) > Float.neg_infinity)
            comp.Model.requires
        in
        if comp.Model.placeable && inputs_known then
          List.iter
            (fun prov ->
              let o = iface_idx prov in
              let prim_o = primary o in
              match
                List.find_opt
                  (fun (fi, fp, _) -> String.equal fi prov && String.equal fp prim_o)
                  comp.Model.effects
              with
              | None -> ()
              | Some (_, _, e) -> (
                  let env v =
                    match split_var v with
                    | "node", _ -> Float.infinity (* optimistic *)
                    | iface_name, prop_name -> (
                        let i = iface_idx iface_name in
                        if String.equal prop_name (primary i) then iface_max.(i)
                        else Float.infinity)
                  in
                  match Expr.eval ~env e with
                  | v ->
                      if v > iface_max.(o) +. 1e-12 then begin
                        iface_max.(o) <- v;
                        changed := true
                      end
                  | exception (Expr.Unbound_variable _ | Division_by_zero) -> ()))
            comp.Model.provides)
      comps
  done;
  (* A fixpoint still changing after the round bound indicates an
     amplifying effect cycle: the only sound finite answer is "unbounded". *)
  if !changed then
    Array.iteri
      (fun i v -> if v > Float.neg_infinity then iface_max.(i) <- Float.infinity)
      iface_max;
  let iface_max = Array.map (fun v -> Float.max v 0.) iface_max in

  (* ---------------- dead-action pruning ---------------- *)
  (* [iface_max] is the same admissible supply bound Regression replay
     seeds unknown streams with: a leveled action assuming an input level
     whose infimum exceeds it can never fire, and neither can an action
     whose preconditions only such actions could have produced (relaxed
     forward reachability over the survivors).  Pruning them here shrinks
     every downstream graph.  Survivors keep their relative order and are
     renumbered sequentially, so the result is exactly what grounding
     without the dead schemas would have produced. *)
  let ground_actions = actions in
  let actions, pruned_actions =
    if not prune then (actions, 0)
    else begin
      let n = Array.length actions in
      let live = Array.make n true in
      Array.iteri
        (fun k (a : Action.t) ->
          if
            Array.exists
              (fun (i, ivl) -> I.lo ivl > iface_max.(i))
              a.Action.in_levels
          then live.(k) <- false)
        actions;
      let producible = Array.copy init in
      let applied = Array.make n false in
      let fired = ref true in
      while !fired do
        fired := false;
        Array.iteri
          (fun k (a : Action.t) ->
            if
              live.(k) && (not applied.(k))
              && Array.for_all (fun p -> producible.(p)) a.Action.pre
            then begin
              applied.(k) <- true;
              fired := true;
              Array.iter (fun p -> producible.(p) <- true) a.Action.add_closure
            end)
          actions
      done;
      for k = 0 to n - 1 do
        if live.(k) && not applied.(k) then live.(k) <- false
      done;
      let survivors = ref [] in
      for k = n - 1 downto 0 do
        if live.(k) then survivors := actions.(k) :: !survivors
      done;
      match Array.of_list !survivors with
      | kept when Array.length kept = n -> (actions, 0)
      | kept ->
          Array.iteri
            (fun k a -> kept.(k) <- { a with Action.act_id = k })
            kept;
          (kept, n - Array.length kept)
    end
  in

  (* ---------------- supports ---------------- *)
  let supports = Array.make (Prop.count props) [] in
  (* Iterate in reverse so each support list ends up in ascending action
     id order (determinism). *)
  for k = Array.length actions - 1 downto 0 do
    let a = actions.(k) in
    Array.iter
      (fun pid -> supports.(pid) <- a.Action.act_id :: supports.(pid))
      a.Action.add_closure
  done;

  let goal_props =
    Array.of_list
      (List.map
         (function
           | Model.Placed (name, node) ->
               Prop.placed_id props ~comp:(comp_idx name) ~node
           | Model.Available _ -> assert false (* rewritten above *))
         app.goals)
  in

  {
    Problem.topo;
    app;
    ifaces;
    comps;
    iface_levels;
    iface_tags;
    props;
    actions;
    supports;
    init;
    init_consumed = !init_consumed;
    sources = List.rev !sources;
    goal_props;
    comp_allowed_node;
    iface_max;
    pruned_actions;
    (* Share the one array when pruning removed nothing. *)
    ground_actions =
      (if pruned_actions = 0 then actions else ground_actions);
  }

(* A formula that divides by zero at a level endpoint has no value
   there, and one with no finite lower bound has no interval: the
   specification is at fault, not the planner. *)
let compile_with ~adjust ~telemetry ~deadline ~prune ~reuse topo app leveling =
  match
    ground_with ~adjust ~telemetry ~deadline ~prune ~reuse topo app leveling
  with
  | pb -> pb
  | exception Division_by_zero ->
      fail "a formula divides by zero at a resource level endpoint"
  | exception Expr.Unbounded_below ->
      fail "a formula has no finite lower bound over a resource level"

let no_adjust ~comp:_ ~node:_ = 0.

let compile ?(adjust = no_adjust) ?(telemetry = Telemetry.null)
    ?(deadline = Deadline.none) ?(prune = true) topo app leveling =
  compile_with ~adjust ~telemetry ~deadline ~prune ~reuse:no_reuse topo app
    leveling

(* Incremental recompilation after a topology delta.  The old problem's
   actions are indexed by grounding group — (comp, node) for placements,
   (iface, link id, src, dst) for crossings — and groups whose site the
   delta did not touch are copied instead of re-grounded.  Link ids are
   stable across every Mutate operation, so the crossing key needs no
   translation: a surviving link's group is found under the same id it
   always had, and a tombstoned link's group is simply never asked for
   (the new topology's live view no longer contains it).  A copied group
   is exactly what fresh grounding would produce: placement groups
   depend only on their node's capacities, crossing groups only on their
   link's capacities and the endpoint names, all unchanged at untouched
   sites (and [adjust] must be the same function that compiled [old] —
   {!Session} fixes it per session).  Because {!compile_with} walks
   groups in the canonical cold order and assigns sequential act_ids, the
   result is structurally identical to a cold [compile] of the mutated
   topology, just cheaper. *)
let recompile ?(adjust = no_adjust) ?(telemetry = Telemetry.null)
    ?(deadline = Deadline.none) ~(old : Problem.t) ~node_touched
    ~link_touched topo app leveling =
  (* Reuse groups are built from the *pre-prune* ground set: deadness is
     a global property (it flows through [iface_max] and the relaxed
     reachability cascade), so a delta at one site can revive an action
     pruned at an untouched one.  Serving the full ground groups keeps
     every candidate on the table, and the fresh compile's own prune
     pass re-proves deadness over the assembled set — both the kill and
     the revive direction land exactly where a cold compile would. *)
  let place_groups = Hashtbl.create 256 in
  let cross_groups = Hashtbl.create 256 in
  let push tbl key a =
    Hashtbl.replace tbl key
      (a :: Option.value (Hashtbl.find_opt tbl key) ~default:[])
  in
  Array.iter
    (fun (a : Action.t) ->
      match a.Action.kind with
      | Action.Place { comp; node } -> push place_groups (comp, node) a
      | Action.Cross { iface; link; src; dst } ->
          push cross_groups (iface, link, src, dst) a)
    old.Problem.ground_actions;
  (* Restore original emission order within each group. *)
  Hashtbl.filter_map_inplace (fun _ l -> Some (List.rev l)) place_groups;
  Hashtbl.filter_map_inplace (fun _ l -> Some (List.rev l)) cross_groups;
  let reused = ref 0 in
  let serve olds =
    reused := !reused + List.length olds;
    Some olds
  in
  let reuse =
    {
      reuse_place =
        (fun ~comp ~node ->
          if node_touched node then None
          else
            match Hashtbl.find_opt place_groups (comp, node) with
            | Some olds -> serve olds
            | None -> None);
      reuse_cross =
        (fun ~iface ~link_id ~src ~dst ->
          if link_touched link_id || node_touched src || node_touched dst then
            None
          else
            match Hashtbl.find_opt cross_groups (iface, link_id, src, dst) with
            | Some olds -> serve olds
            | None -> None);
    }
  in
  let pb =
    compile_with ~adjust ~telemetry ~deadline ~prune:true ~reuse topo app
      leveling
  in
  (* Invalidation is counted against the ground set the groups serve. *)
  (pb, Array.length old.Problem.ground_actions - !reused)

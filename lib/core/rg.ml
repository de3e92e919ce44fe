module Heap = Sekitei_util.Heap
module Iset = Set.Make (Int)
module Deadline = Sekitei_util.Deadline
module Telemetry = Sekitei_telemetry.Telemetry
module Registry = Sekitei_telemetry.Registry

type stats = {
  created : int;
  expanded : int;
  open_left : int;
  replay_pruned : int;
  final_replay_rejected : int;
  duplicates : int;
  order_repaired : int;
  slrg_deferred : int;
  slrg_saved : int;
  slrg : Slrg.counters;
}

(* The one naming of the search counters.  The trace and the registry
   are both fed from this table, so their names and values agree. *)
let counter_table s =
  [
    ("rg.searches", 1);
    ("rg.created", s.created);
    ("rg.expanded", s.expanded);
    ("rg.duplicates", s.duplicates);
    ("rg.replay_pruned", s.replay_pruned);
    ("rg.final_replay_rejected", s.final_replay_rejected);
    ("rg.slrg_deferred", s.slrg_deferred);
    ("rg.slrg_saved", s.slrg_saved);
    ("slrg.set_nodes", s.slrg.set_nodes);
    ("slrg.queries", s.slrg.queries);
    ("slrg.cache_hits", s.slrg.cache_hits);
    ("slrg.suffix_harvested", s.slrg.harvested);
    ("slrg.bound_promoted", s.slrg.promoted);
  ]

let publish telemetry metrics s =
  let table = counter_table s and open_left = float_of_int s.open_left in
  List.iter (fun (name, v) -> Telemetry.count telemetry name v) table;
  Telemetry.gauge telemetry "rg.open_left" open_left;
  Option.iter
    (fun m ->
      List.iter (fun (name, v) -> Registry.count m name v) table;
      Registry.set_gauge m "rg.open_left" open_left)
    metrics

type hsample = { set_size : int; g : float; h_slrg : float; h_plrg : float }
type frontier = { f_tail : Action.t list; f_pending : int array }

type result =
  | Solution of Action.t list * Replay.metrics * float
  | Exhausted
  | Budget_exceeded of {
      expansions : int;
      best_f : float;
      frontier : frontier option;
    }
  | Deadline_reached of {
      expansions : int;
      best_f : float;
      frontier : frontier option;
    }

type node = {
  tail : Action.t list;  (** plan suffix, execution order *)
  set : Propset.handle;  (** interned canonical pending propositions *)
  g : float;
  serial : int;
      (** creation order; the heap tie-break key, preserved across
          deferred re-insertions so the expansion order is identical to
          eager evaluation *)
  acts : Iset.t;  (** action ids in [tail] (repetition guard) *)
  mutable rs : Replay.rstate;
      (** optimistic replay state: the parent's until the node is first
          popped, then the suffix's own (one [Replay.extend] per popped
          node, never repeated across a deferred re-insertion) *)
  mutable replayed : bool;
      (** whether [rs] already includes the tail's head action (the
          root's empty tail has none to replay) *)
  mutable refined : bool;
      (** whether [h] is the SLRG value (true) or the cheap PLRG bound a
          deferred push queued the node with (false) *)
  mutable chain : hsample list;
      (** under [?profile]: this node's h-quality sample consed onto its
          ancestors' (leaf first); [[]] when profiling is off.  Set by
          [push]; the [h_slrg] column of the head sample is patched in
          at refinement time under deferred evaluation. *)
}

(* Duplicate-detection key: interned pending set plus the set of action
   ids in the tail.  The repetition guard makes tails action *sets*, so
   two nodes agreeing on both components are permutations of one another
   — same g (sum of the same cost bounds), same logical obligations —
   and only one needs expanding.  Nodes agreeing on the pending set but
   built from different actions are NOT interchangeable: their replay
   states differ in feasibility, and collapsing them by g-value loses
   solutions (observed on the tiny-E and small-B levelings).  With
   hash-consed sets the key hashes and compares one int per component
   probe instead of re-walking the array. *)
module Key = struct
  type t = int * Iset.t  (* interned set id, tail action set *)

  let equal ((s1 : int), a1) (s2, a2) = s1 = s2 && Iset.equal a1 a2

  let hash ((s : int), a) =
    let h = ref ((s * 0x01000193) land max_int) in
    Iset.iter (fun x -> h := ((!h * 31) + x) land max_int) a;
    !h
end

module Ktbl = Hashtbl.Make (Key)

let search ?(max_expansions = 500_000) ?(dedup = true) ?(defer = true)
    ?profile ?(telemetry = Telemetry.null) ?metrics ?(deadline = Deadline.none)
    (pb : Problem.t) (_plrg : Plrg.t) slrg =
  let progress_interval = Telemetry.progress_interval telemetry in
  let created = ref 0
  and expanded = ref 0
  and replay_pruned = ref 0
  and final_rejected = ref 0
  and duplicates = ref 0
  and deferred = ref 0
  and refined_count = ref 0 in
  (* Oracle queries run only inside this search, so its share of the
     oracle's counters is the difference against this snapshot. *)
  let slrg0 = Slrg.counters slrg in
  (* The SLRG oracle owns the hash-consing ctx and the supports table;
     sharing them keeps handle ids consistent across the two phases and
     lets the regression memo and candidate cache pay off twice. *)
  let ctx = Slrg.ctx slrg in
  let supports = Slrg.supports slrg in
  (* (pending set, action set) pairs claimed by a popped node that
     passed replay.  A node re-deriving a claimed pair is a permutation
     of the claimant — a duplicate, pruned.  The empty set is exempt:
     final from-init validation is order-sensitive, so every permutation
     that reaches the empty set is validated on its own. *)
  let seen_keys = Ktbl.create 256 in
  let heap = Heap.create () in
  (* PLRG h_max of a pending set: the per-proposition heuristic the SLRG
     refines.  Under deferred evaluation it is also the cheap first-stage
     bound successors are queued with; served from the oracle's per-id
     memo, which the oracle's own A* expansions share. *)
  let h_plrg (h : Propset.handle) = Slrg.h_max_h slrg h in
  let push node =
    (* Two-stage heuristic evaluation (the deferred-evaluation trick from
       satisficing planners, applied admissibly): queue the successor
       with the cheap PLRG h_max bound and run the expensive SLRG oracle
       only when the node reaches the top of the heap — most generated
       nodes never do, and never pay an oracle query.  Since the SLRG h
       dominates the PLRG h, the refined f only grows; re-inserting the
       popped node under its refined value (below) is sound A*. *)
    let h =
      if defer && Array.length node.set.Propset.set > 0 then h_plrg node.set
      else begin
        node.refined <- true;
        Slrg.query_h slrg node.set
      end
    in
    if Float.is_finite h then begin
      incr created;
      if not node.refined then incr deferred;
      (match profile with
      | None -> ()
      | Some _ ->
          node.chain <-
            {
              set_size = Array.length node.set.Propset.set;
              g = node.g;
              h_slrg = (if node.refined then h else Float.nan);
              h_plrg = h_plrg node.set;
            }
            :: node.chain);
      Heap.add heap ~prio:(node.g +. h) ~prio2:(-.node.g) ~seq:node.serial node
    end
  in
  let next_serial = ref 0 in
  let mk ~tail ~set ~g ~acts ~rs ~chain =
    let serial = !next_serial in
    incr next_serial;
    { tail; set; g; serial; acts; rs; replayed = false; refined = false; chain }
  in
  push
    (mk ~tail:[]
       ~set:(Propset.intern ctx (Propset.canonical_array pb pb.goal_props))
       ~g:0. ~acts:Iset.empty ~rs:(Replay.initial pb) ~chain:[]);
  (* First pop of a node: drop it if a permutation already claimed its
     (set, acts) key, else replay its head action in the parent's state
     and drop it on failure; only a node that passes claims the key, so
     a failing permutation never shadows a passing one.  Permutations
     tie on (f, -g) and pop in serial order, so the survivor is the
     first-pushed passing one. *)
  let admit node =
    match node.tail with
    | a :: _ when not node.replayed ->
        let key = (node.set.Propset.id, node.acts) in
        let exempt = (not dedup) || Array.length node.set.Propset.set = 0 in
        if (not exempt) && Ktbl.mem seen_keys key then begin
          incr duplicates;
          false
        end
        else begin
          match Replay.extend pb ~mode:Replay.Regression node.rs a with
          | Error _ ->
              incr replay_pruned;
              false
          | Ok rs ->
              node.rs <- rs;
              node.replayed <- true;
              if not exempt then Ktbl.replace seen_keys key ();
              true
        end
    | _ -> true
  in
  let finish result =
    let stats =
      {
        created = !created;
        expanded = !expanded;
        open_left = Heap.length heap;
        replay_pruned = !replay_pruned;
        final_replay_rejected = !final_rejected;
        duplicates = !duplicates;
        order_repaired = 0;
        slrg_deferred = !deferred;
        slrg_saved = !deferred - !refined_count;
        slrg = Slrg.counters_since slrg slrg0;
      }
    in
    publish telemetry metrics stats;
    (result, stats)
  in
  let rec loop () =
    match Heap.pop heap with
    | None -> finish Exhausted
    | Some (node, _) when not (admit node) -> loop ()
    | Some (node, f) ->
        if not node.refined then begin
          (* Second heuristic stage, on pop: refine the cheap bound with
             the SLRG oracle and re-insert unless the node is still the
             frontier minimum under the full (f, -g, serial) order — the
             serial is preserved, so ties resolve exactly as if the node
             had been queued with the refined value from the start. *)
          incr refined_count;
          let h = Slrg.query_h slrg node.set in
          if not (Float.is_finite h) then loop ()
          else begin
            node.refined <- true;
            (match profile with
            | None -> ()
            | Some _ -> (
                match node.chain with
                | top :: rest when Float.is_nan top.h_slrg ->
                    node.chain <- { top with h_slrg = h } :: rest
                | _ -> ()));
            let f' = node.g +. h in
            let still_min =
              f' = f
              ||
              match Heap.peek heap with
              | None -> true
              | Some (_, top_f) -> f' < top_f
            in
            if still_min then process node f'
            else begin
              Heap.add heap ~prio:f' ~prio2:(-.node.g) ~seq:node.serial node;
              loop ()
            end
          end
        end
        else process node f
  and process node f =
    if !expanded >= max_expansions then
      finish
        (Budget_exceeded
           {
             expansions = !expanded;
             best_f = f;
             frontier =
               Some { f_tail = node.tail; f_pending = node.set.Propset.set };
           })
    else if Deadline.expired deadline then
      (* Same evidence as budget exhaustion: the popped node's f is the
         frontier minimum, an admissible lower bound on any plan a longer
         search could still find. *)
      finish
        (Deadline_reached
           {
             expansions = !expanded;
             best_f = f;
             frontier =
               Some { f_tail = node.tail; f_pending = node.set.Propset.set };
           })
    else begin
      incr expanded;
      if progress_interval > 0 && !expanded mod progress_interval = 0 then
        Telemetry.progress telemetry "rg"
          [
            ("expansions", Telemetry.Int !expanded);
            ("open", Telemetry.Int (Heap.length heap));
            ("best_f", Telemetry.Float f);
            ("created", Telemetry.Int !created);
            ("duplicates", Telemetry.Int !duplicates);
          ];
      if Array.length node.set.Propset.set = 0 then begin
        (* Candidate solution: validate against the true initial map. *)
        match Replay.run ~telemetry pb ~mode:Replay.From_init node.tail with
        | Ok metrics ->
            (match profile with
            | None -> ()
            | Some out -> out := List.rev node.chain);
            finish (Solution (node.tail, metrics, node.g))
        | Error _ ->
            incr final_rejected;
            loop ()
      end
      else begin
        Array.iter
          (fun aid ->
            if not (Iset.mem aid node.acts) then begin
              let a = pb.actions.(aid) in
              push
                (mk
                   ~tail:(a :: node.tail)
                   ~set:(Propset.regress_h ctx node.set a)
                   ~g:(node.g +. a.Action.cost_lb)
                   ~acts:(Iset.add aid node.acts)
                   ~rs:node.rs ~chain:node.chain)
            end)
          (Supports.candidates_h supports node.set);
        loop ()
      end
    end
  in
  loop ()

module Heap = Sekitei_util.Heap
module Itbl = Hashtbl.Make (Int)
module Timer = Sekitei_util.Timer
module Deadline = Sekitei_util.Deadline
module Telemetry = Sekitei_telemetry.Telemetry
module Registry = Sekitei_telemetry.Registry

type counters = {
  set_nodes : int;
  queries : int;
  cache_hits : int;
  harvested : int;
  promoted : int;
  query_ms : float;
  query_minor_words : float;
  query_major_collections : int;
}

(* A budget-exhausted query caches its admissible bound together with the
   expansion budget it spent; a re-query re-runs the A* with that budget
   doubled (geometric, so total work per set stays linear in the final
   budget) until the answer is exact or the per-set cap is reached, after
   which the bound is served from cache like a solved entry. *)
let escalation_cap = 32

(* Escalated re-runs additionally draw on one shared pool of
   [escalation_pool_factor * query_budget] expansions per oracle.
   Escalation is opportunistic — serving the cached bound is always
   sound — and on hard instances thousands of distinct exhausted sets
   would otherwise each escalate to the per-set cap, multiplying total
   search work for bounds the caller never benefits from. *)
let escalation_pool_factor = 100

(* Adaptive bound harvesting is skipped when a solve closed more sets
   than this: huge closed sets (escalated runs on hard instances) are
   dominated by interior sets no later query revisits, and harvesting
   them bloats [bounds] — taxing the per-successor seeding lookup of
   every subsequent query — for no pruning in return. *)
let harvest_cap = 4096

(* All caches are keyed by the dense interned-set id ({!Propset.handle}).
   Interned ids are dense, so the three persistent caches (exact costs,
   exhausted bounds, PLRG h_max) are flat arrays indexed by id with NaN
   as the absent sentinel: the per-successor probes of the A* inner loop
   — the hottest reads of the whole planner — are plain array loads, no
   hashing and no option allocation.  The FNV walk over the set elements
   runs once per distinct set, inside the interner. *)
type t = {
  mutable problem : Problem.t;
  mutable plrg : Plrg.t;
  ctx : Propset.ctx;
  mutable supports : Supports.t;
  query_budget : int;
  mutable deadline : Deadline.t;
      (** per-request cancellation token (see {!begin_request}); polled
          every 64 expansions and treated exactly like budget exhaustion,
          so an interrupted query still records an admissible bound *)
  mutable solved_val : float array;
      (** exact set cost by interned id, NaN = not solved (infinity is a
          legitimate solved value: logically infeasible set) *)
  mutable solved_ids : int list;  (** ids with a solved entry, unordered *)
  mutable bound_val : float array;
      (** per budget-exhausted set id: the admissible lower bound found
          so far, NaN = no bound *)
  mutable bound_spent : int array;
      (** expansion budget spent finding [bound_val] (drives the
          doubled-budget escalation on re-query) *)
  mutable generated : int;
  mutable escalation_pool : int;
      (** remaining expansions escalated re-runs may spend, shared across
          all sets of this oracle *)
  mutable queries : int;  (** non-memoized queries (A* runs) *)
  mutable cache_hits : int;
  mutable suffix_harvested : int;
  mutable bound_promoted : int;
  telemetry : Telemetry.t;
  m_query_ms : Registry.histogram option;
      (** per-query latency distribution in the always-on registry *)
  mutable query_ms : float;
      (** cumulative wall time of non-memoized queries (always tracked —
          the planner's phase report needs it even without telemetry) *)
  mutable gc_minor_words : float;
      (** cumulative [Gc.minor_words] allocated inside non-memoized
          queries (phase-level allocation accounting) *)
  mutable gc_major_collections : int;
  mutable hmax_by_id : float array;
      (** PLRG h_max per interned set id, [nan] = not yet computed — the
          same sets recur across queries (and in the RG push path), so
          the per-proposition sweep runs once per distinct set *)
}

let create ?(telemetry = Telemetry.null) ?metrics ?(query_budget = 500)
    (problem : Problem.t) plrg =
  {
    problem;
    plrg;
    ctx = Propset.make_ctx problem;
    supports = Supports.make problem plrg;
    query_budget;
    deadline = Deadline.none;
    solved_val = Array.make 1024 Float.nan;
    solved_ids = [];
    bound_val = Array.make 1024 Float.nan;
    bound_spent = Array.make 1024 0;
    generated = 0;
    escalation_pool = escalation_pool_factor * query_budget;
    queries = 0;
    cache_hits = 0;
    suffix_harvested = 0;
    bound_promoted = 0;
    telemetry;
    m_query_ms =
      Option.map (fun m -> Registry.histogram m "slrg.query_ms") metrics;
    query_ms = 0.;
    gc_minor_words = 0.;
    gc_major_collections = 0;
    hmax_by_id = Array.make 1024 Float.nan;
  }

let ctx t = t.ctx
let supports t = t.supports

(* Dense-id cache plumbing: reads tolerate ids beyond the current
   capacity (absent), writes grow geometrically. *)
let[@inline] dget arr id = if id < Array.length arr then arr.(id) else Float.nan

let grow_float arr cap =
  let grown = Array.make cap Float.nan in
  Array.blit arr 0 grown 0 (Array.length arr);
  grown

let grow_int arr cap =
  let grown = Array.make cap 0 in
  Array.blit arr 0 grown 0 (Array.length arr);
  grown

let[@inline] solved t id = dget t.solved_val id
let[@inline] bound t id = dget t.bound_val id

let set_solved t id c =
  let n = Array.length t.solved_val in
  if id >= n then
    t.solved_val <- grow_float t.solved_val (Stdlib.max (2 * n) (id + 1024));
  if Float.is_nan t.solved_val.(id) then t.solved_ids <- id :: t.solved_ids;
  t.solved_val.(id) <- c

let set_bound t id b spent =
  let n = Array.length t.bound_val in
  if id >= n then begin
    let cap = Stdlib.max (2 * n) (id + 1024) in
    t.bound_val <- grow_float t.bound_val cap;
    t.bound_spent <- grow_int t.bound_spent cap
  end;
  t.bound_val.(id) <- b;
  t.bound_spent.(id) <- spent

let clear_bound t id =
  if id < Array.length t.bound_val then t.bound_val.(id) <- Float.nan

let h_max t (set : int array) =
  let h = ref 0. in
  for i = 0 to Array.length set - 1 do
    let c = Plrg.cost t.plrg set.(i) in
    if c > !h then h := c
  done;
  !h

let h_max_h t (handle : Propset.handle) =
  let id = handle.Propset.id in
  let n = Array.length t.hmax_by_id in
  if id >= n then
    t.hmax_by_id <- grow_float t.hmax_by_id (Stdlib.max (2 * n) (id + 1024));
  let v = t.hmax_by_id.(id) in
  if Float.is_nan v then begin
    let v = h_max t handle.Propset.set in
    t.hmax_by_id.(id) <- v;
    v
  end
  else v

(* Suffix-cost harvesting: at exact termination with optimum [cost], every
   set on the recorded best complete path satisfies
   [cost_to_empty set = cost - g(set)] — going through the set is one way
   to complete (so [cost <= g + cost_to_empty]) and the recorded suffix
   achieves exactly [cost - g].  One solve thus fills the [solved] cache
   for the whole chain.  [g_best] may exceed the optimal prefix cost on
   degenerate reopening orders, in which case the harvested value is an
   underestimate — still a sound lower bound, never an overestimate. *)
let harvest t ~(root : Propset.handle) ~cost ~g_best ~parent from =
  match from with
  | None -> ()
  | Some (s0 : Propset.handle) ->
      let rec walk (s : Propset.handle) =
        if Array.length s.Propset.set > 0 && s.Propset.id <> root.Propset.id
        then begin
          (match Itbl.find_opt g_best s.Propset.id with
          | None -> ()
          | Some g ->
              let c = cost -. g in
              (* h_max is consistent under regression, hence admissible
                 against the exact suffix cost at every chain node. *)
              assert (h_max t s.Propset.set <= c +. 1e-6);
              if Float.is_nan (solved t s.Propset.id) then begin
                set_solved t s.Propset.id c;
                t.suffix_harvested <- t.suffix_harvested + 1;
                if not (Float.is_nan (bound t s.Propset.id)) then begin
                  clear_bound t s.Propset.id;
                  t.bound_promoted <- t.bound_promoted + 1
                end
              end);
          match Itbl.find_opt parent s.Propset.id with
          | Some p -> walk p
          | None -> ()
        end
        else
          match Itbl.find_opt parent s.Propset.id with
          | Some p -> walk p
          | None -> ()
      in
      walk s0

(* One A* regression solve of [root] under [budget] expansions.  [prior]
   is the cached (bound, spent) pair from an earlier exhausted run, folded
   into the root heuristic and the returned bound. *)
let run_query t (root : Propset.handle) ~prior ~budget =
  let pb = t.problem in
  let t0 = Timer.start () in
  (* [Gc.minor_words] reads the live allocation pointer; [quick_stat]'s
     field is only refreshed at collection boundaries in native code. *)
  let gc0_minor = Gc.minor_words () in
  let gc0_major = (Gc.quick_stat ()).Gc.major_collections in
  let sp =
    if Telemetry.enabled t.telemetry then
      Some (Telemetry.begin_span t.telemetry "slrg.query")
    else None
  in
  let expansions = ref 0 in
  let cost =
    let h_root =
      let h = h_max_h t root in
      match prior with Some (b, _) -> Float.max h b | None -> h
    in
    if not (Float.is_finite h_root) then begin
      set_solved t root.Propset.id Float.infinity;
      Float.infinity
    end
    else begin
      let g_best = Itbl.create 64 in
      let parent = Itbl.create 64 in
      let heap = Heap.create () in
      Itbl.replace g_best root.Propset.id 0.;
      Heap.add heap ~prio:h_root (root, 0.);
      t.generated <- t.generated + 1;
      let best_complete = ref Float.infinity in
      (* The g_best key the best complete path descends from; its parent
         chain is harvested on exact termination. *)
      let complete_from = ref None in
      let result = ref None in
      let exact = ref true in
      (* Bound seeding can make the heuristic inconsistent, and after a
         node reopening [g_best] values need not telescope along the
         parent chain any more — the root answer stays exact, but suffix
         harvesting is skipped for that (rare) run. *)
      let reopened = ref false in
      while !result = None do
        match Heap.peek heap with
        | None ->
            result := Some !best_complete
            (* infinity when nothing completed *)
        | Some ((set, g), f) ->
            if !best_complete <= f then result := Some !best_complete
            else if
              !expansions >= budget
              || (!expansions land 63 = 0 && Deadline.expired t.deadline)
            then begin
              (* Budget exhausted (or the request deadline fired — same
                 graceful path): the open minimum is still an admissible
                 bound, but not exact. *)
              exact := false;
              result := Some (Float.min !best_complete f)
            end
            else begin
              ignore (Heap.pop heap);
              let stale =
                match Itbl.find_opt g_best set.Propset.id with
                | Some g' -> g' < g -. 1e-12
                | None -> false
              in
              if not stale then begin
                incr expansions;
                if Array.length set.Propset.set = 0 then begin
                  if g < !best_complete then begin
                    best_complete := g;
                    complete_from := Some set
                  end;
                  result := Some !best_complete
                end
                else
                  Array.iter
                    (fun aid ->
                      let a = pb.actions.(aid) in
                      let set' = Propset.regress_h t.ctx set a in
                      let g' = g +. a.Action.cost_lb in
                      let rest = solved t set'.Propset.id in
                      if not (Float.is_nan rest) then begin
                        if g' +. rest < !best_complete then begin
                          best_complete := g' +. rest;
                          complete_from := Some set
                        end
                      end
                      else
                        let h = h_max_h t set' in
                        if Float.is_finite h then begin
                          (* Solved-subset seeding: a cached partial
                             bound for the successor strengthens its
                             f-value (still admissible), so exhausted
                             earlier queries sharpen later ones instead
                             of being discarded. *)
                          let b = bound t set'.Propset.id in
                          let h = if Float.is_nan b then h else Float.max h b in
                          (* Dominated successors (f no better than a
                             completion already in hand) can never
                             improve the answer; with the harvested
                             bounds folded into h this prunes most of
                             the frontier of a re-query. *)
                          if g' +. h < !best_complete then
                            match Itbl.find_opt g_best set'.Propset.id with
                            | Some g_old when g_old <= g' +. 1e-12 -> ()
                            | existing ->
                                if Option.is_some existing then
                                  reopened := true;
                                Itbl.replace g_best set'.Propset.id g';
                                Itbl.replace parent set'.Propset.id set;
                                t.generated <- t.generated + 1;
                                Heap.add heap ~prio:(g' +. h) (set', g')
                        end)
                    (Supports.candidates_h t.supports set)
              end
            end
      done;
      let cost = Option.get !result in
      if !exact then begin
        if not !reopened then
          harvest t ~root ~cost ~g_best ~parent !complete_from;
        (* Adaptive-A*-style bound harvesting: all queries regress toward
           the same target (the empty set), so cost-to-empty is one shared
           function across queries.  For every set touched by this exact
           solve, [cost - g] lower-bounds its cost-to-empty — a completion
           cheaper than that would contradict the optimality of [cost],
           and any recorded g only overestimates the optimal prefix.
           Folded into later queries' f-values by bound seeding, this is
           what makes correlated RG queries terminate almost immediately. *)
        if Float.is_finite cost && Itbl.length g_best <= harvest_cap then
          Itbl.iter
            (fun sid g ->
              let b = cost -. g in
              if
                b > 0.
                && Float.is_nan (solved t sid)
                && b > h_max_h t (Propset.handle_of_id t.ctx sid)
              then
                let b0 = bound t sid in
                if Float.is_nan b0 then set_bound t sid b 0
                else if b0 < b then set_bound t sid b t.bound_spent.(sid))
            g_best;
        if not (Float.is_nan (bound t root.Propset.id)) then begin
          clear_bound t root.Propset.id;
          t.bound_promoted <- t.bound_promoted + 1
        end;
        set_solved t root.Propset.id cost;
        cost
      end
      else begin
        (* Keep the strongest admissible bound seen for this set and the
           budget this run spent, so the next re-query escalates. *)
        let cost =
          match prior with Some (b, _) -> Float.max b cost | None -> cost
        in
        set_bound t root.Propset.id cost budget;
        cost
      end
    end
  in
  if prior <> None then t.escalation_pool <- t.escalation_pool - !expansions;
  let this_query_ms = Timer.elapsed_ms t0 in
  t.queries <- t.queries + 1;
  (match t.m_query_ms with
  | Some h -> Registry.observe h this_query_ms
  | None -> ());
  t.query_ms <- t.query_ms +. this_query_ms;
  t.gc_minor_words <- t.gc_minor_words +. (Gc.minor_words () -. gc0_minor);
  t.gc_major_collections <-
    t.gc_major_collections
    + ((Gc.quick_stat ()).Gc.major_collections - gc0_major);
  (match sp with
  | Some sp ->
      ignore
        (Telemetry.end_span t.telemetry sp
           ~attrs:
             [
               ("set", Telemetry.Int (Array.length root.Propset.set));
               ("expansions", Telemetry.Int !expansions);
               ("cost", Telemetry.Float cost);
             ])
  | None -> ());
  cost

(* [root] must be a handle of this oracle's {!ctx} (the RG shares the ctx
   and passes its nodes' handles through unchanged; results are memoized
   by the handle's dense id). *)
let query_h t (root : Propset.handle) =
  if Array.length root.Propset.set = 0 then 0.
  else
    let c = solved t root.Propset.id in
    if not (Float.is_nan c) then begin
      t.cache_hits <- t.cache_hits + 1;
      c
    end
    else
      let b = bound t root.Propset.id in
      if Float.is_nan b then run_query t root ~prior:None ~budget:t.query_budget
      else
        let spent = t.bound_spent.(root.Propset.id) in
        if spent >= escalation_cap * t.query_budget || t.escalation_pool <= 0
        then begin
          (* Escalation cap or shared pool exhausted: serve the bound
             like a cache entry so pathological sets cannot dominate
             planning time. *)
          t.cache_hits <- t.cache_hits + 1;
          b
        end
        else
          run_query t root ~prior:(Some (b, spent))
            ~budget:(max t.query_budget (2 * spent))

(* [root] must be canonical (see {!Propset}); it is interned on entry. *)
let query_set t (root : int array) = query_h t (Propset.intern t.ctx root)
let query t props = query_set t (Propset.canonical t.problem props)
let nodes_generated t = t.generated
let query_ms t = t.query_ms
let gc_minor_words t = t.gc_minor_words

let counters t =
  {
    set_nodes = t.generated;
    queries = t.queries;
    cache_hits = t.cache_hits;
    harvested = t.suffix_harvested;
    promoted = t.bound_promoted;
    query_ms = t.query_ms;
    query_minor_words = t.gc_minor_words;
    query_major_collections = t.gc_major_collections;
  }

let counters_since t (c0 : counters) =
  let c = counters t in
  {
    set_nodes = c.set_nodes - c0.set_nodes;
    queries = c.queries - c0.queries;
    cache_hits = c.cache_hits - c0.cache_hits;
    harvested = c.harvested - c0.harvested;
    promoted = c.promoted - c0.promoted;
    query_ms = c.query_ms -. c0.query_ms;
    query_minor_words = c.query_minor_words -. c0.query_minor_words;
    query_major_collections =
      c.query_major_collections - c0.query_major_collections;
  }

let iter_solved t f =
  List.iter
    (fun sid -> f (Propset.handle_of_id t.ctx sid).Propset.set t.solved_val.(sid))
    t.solved_ids

(* ------------------------------------------------------------------ *)
(* Session support: per-request reset and delta invalidation            *)
(* ------------------------------------------------------------------ *)

(* Exact solved entries and h_max values are path-independent facts about
   the problem, so they may be carried across requests; exhausted-query
   bounds are not — they depend on the budget, the escalation pool, and
   the order earlier queries arrived in.  Dropping every bound and
   refilling the escalation pool at each request start is what makes a
   warm re-plan bit-identical to a cold one (provided no root query
   exhausts its budget in the cold run; see {!Session}). *)
let begin_request t ~deadline =
  Array.fill t.bound_val 0 (Array.length t.bound_val) Float.nan;
  Array.fill t.bound_spent 0 (Array.length t.bound_spent) 0;
  t.escalation_pool <- escalation_pool_factor * t.query_budget;
  t.deadline <- deadline

let refresh t (pb : Problem.t) plrg ~dirty =
  t.problem <- pb;
  t.plrg <- plrg;
  t.supports <- Supports.make pb plrg;
  Propset.refresh_ctx t.ctx pb;
  let evicted = ref 0 in
  (* Solved entries over a set with a dirty proposition may regress
     through tainted actions; everything else regresses through actions
     identical in the old and new problems (see {!Supports.taint}) and
     stays exact. *)
  t.solved_ids <-
    List.filter
      (fun sid ->
        let set = (Propset.handle_of_id t.ctx sid).Propset.set in
        if Array.exists dirty set then begin
          t.solved_val.(sid) <- Float.nan;
          incr evicted;
          false
        end
        else true)
      t.solved_ids;
  (* PLRG h_max of a clean set is unchanged (clean propositions keep
     their per-proposition costs); dirty sets must recompute against the
     rebuilt PLRG. *)
  for id = 0 to Array.length t.hmax_by_id - 1 do
    if not (Float.is_nan t.hmax_by_id.(id)) then
      let set = (Propset.handle_of_id t.ctx id).Propset.set in
      if Array.exists dirty set then begin
        t.hmax_by_id.(id) <- Float.nan;
        incr evicted
      end
  done;
  !evicted

(* The planner façade.  The pipeline itself lives in {!Session}; this
   module re-exports the session types under their historical names and
   keeps the one-shot entry points as thin wrappers over throwaway
   sessions, so [plan (request topo app ~leveling)] behaves — spans,
   timings, stats — exactly as it always did. *)

module Session = Session

type config = Session.config = {
  slrg_query_budget : int;
  rg_max_expansions : int;
  validate_spec : bool;
  explain : bool;
  profile_h : bool;
  defer_h : bool;
  deadline_ms : float option;
  certify : bool;
}

let default_config = Session.default_config

type failure_reason = Session.failure_reason =
  | Invalid_spec of string
  | Unreachable_goal of string list
  | Resource_exhausted
  | Search_limit of { expansions : int; best_f : float }
  | Deadline_exceeded of {
      phase : string;
      expansions : int;
      best_f : float option;
    }
  | Certification_failed of string

type stats = Session.stats = {
  total_actions : int;
  plrg_props : int;
  plrg_actions : int;
  slrg_nodes : int;
  rg_created : int;
  rg_open_left : int;
  rg_expanded : int;
  replay_pruned : int;
  final_replay_rejected : int;
  rg_duplicates : int;
  order_repaired : int;
  slrg_queries : int;
  slrg_cache_hits : int;
  slrg_suffix_harvested : int;
  slrg_bound_promoted : int;
  slrg_deferred : int;
  slrg_saved : int;
  invalidated_actions : int;
  evicted_entries : int;
  t_total_ms : float;
  t_search_ms : float;
}

type outcome = { result : (Plan.t, failure_reason) Stdlib.result; stats : stats }

type request = Session.request = {
  topo : Sekitei_network.Topology.t;
  app : Sekitei_spec.Model.app;
  leveling : Sekitei_spec.Leveling.t;
  config : config;
  telemetry : Sekitei_telemetry.Telemetry.t;
}

let request = Session.request

type phase = Session.phase = {
  ms : float;
  items : int;
  minor_words : float;
  major_collections : int;
}

type phases = Session.phases = {
  compile : phase;
  plrg : phase;
  slrg : phase;
  rg : phase;
}

type report = Session.report = {
  result : (Plan.t, failure_reason) Stdlib.result;
  phases : phases;
  stats : stats;
  explanation : Explain.t option;
  certificate : Explain.certificate option;
  hquality : Rg.hsample list option;
}

let plan ?adjust ?metrics (req : request) =
  Session.plan (Session.create ?adjust ?metrics req)

let plan_batch ?adjust ?jobs ?metrics (reqs : request list) =
  let jobs =
    match jobs with
    | Some j when j >= 1 -> j
    | _ -> Sekitei_util.Domain_pool.default_jobs ()
  in
  (* Worker-health accounting lands in the shared registry from each
     worker's own domain — the registry's per-domain shards make that
     contention-free. *)
  let stats =
    Option.map
      (fun m (ws : Sekitei_util.Domain_pool.worker_stats) ->
        let module Registry = Sekitei_telemetry.Registry in
        Registry.count m "pool.workers" 1;
        Registry.count m "pool.items" ws.items;
        Registry.observe_ms m "pool.worker_busy_ms" ws.busy_ms;
        Registry.observe_ms m "pool.worker_idle_ms"
          (Float.max 0. (ws.wall_ms -. ws.busy_ms)))
      metrics
  in
  (* Shared-nothing: each request gets its own throwaway session —
     problem, oracle, ctx — so workers touch no common mutable state
     except the telemetry handles the caller put in the requests, which
     are the caller's contract (per-request handles, or sinks wrapped in
     [Telemetry.locked]), and the optional shared registry, which is
     domain-sharded by design. *)
  Sekitei_util.Domain_pool.map ~jobs ?stats (fun req -> plan ?adjust ?metrics req) reqs

let pp_failure = Session.pp_failure
let pp_stats = Session.pp_stats
let pp_phases = Session.pp_phases

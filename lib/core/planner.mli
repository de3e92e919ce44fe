(** The planner façade: validate, compile, run the three phases, report.

    The one-shot entry point is {!plan} over a {!request} record; it
    returns a {!report} carrying the result, per-phase timings/sizes and
    the flat {!stats} record.  [plan (request topo app ~leveling)] is the
    modified Sekitei algorithm of the paper; omitting [~leveling] runs
    the trivial leveling (every variable one [0, inf) level), which
    degenerates to the original greedy Sekitei (Table 1, scenario A).

    Repeated or perturbed queries should use a long-lived
    {!Session.t} instead: it keeps the compiled problem and the SLRG
    oracle hot across requests, applies topology deltas with
    dependency-tracked invalidation, and bounds request latency with a
    deadline.  {!plan} itself is a thin wrapper over a throwaway
    session, so the two paths cannot drift apart.  The pipeline types
    below ({!config}, {!failure_reason}, {!stats}, {!phases}, ...) are
    re-exported from {!Session} by equation — values flow freely between
    the two modules. *)

(** The session engine ({!Session.create} / {!Session.plan} /
    {!Session.update}), re-exported under the planner namespace. *)
module Session = Session

type config = Session.config = {
  slrg_query_budget : int;  (** set-node budget per SLRG query *)
  rg_max_expansions : int;
  validate_spec : bool;  (** run {!Sekitei_spec.Validate} first *)
  explain : bool;
      (** derive a {!Explain.t} for solved runs and a
          {!Explain.certificate} for failed ones (default [false];
          costs one extra from-init replay of the final plan) *)
  profile_h : bool;
      (** record heuristic-quality samples ({!Rg.hsample}) along the
          solution path (default [false]; adds a PLRG sweep per queued
          RG node, so leave off when benchmarking) *)
  defer_h : bool;
      (** lazy two-stage heuristic evaluation in the RG search (default
          [true]): queue successors under the cheap PLRG bound and run
          the SLRG oracle only on nodes that reach the top of the open
          list.  Solvability and the optimal cost bound are unchanged
          either way (see {!Rg.search} for the fp-tie caveats); [false]
          restores eager per-successor oracle queries for A/B
          measurement *)
  deadline_ms : float option;
      (** per-request wall-clock budget (monotonic {!Sekitei_util.Timer}
          time, polled cooperatively by every phase); [None] (default)
          never expires.  See {!Session} *)
  certify : bool;
      (** re-validate every emitted plan through the installed
          {!Certifier} hook (default [false]; no-op until
          [Sekitei_analysis.Certify.install] has run).  A rejected plan
          becomes [Error (Certification_failed _)] *)
}

val default_config : config

type failure_reason = Session.failure_reason =
  | Invalid_spec of string
  | Unreachable_goal of string list
      (** the PLRG proves the goals logically unreachable; carries the
          labels of the goal propositions with infinite PLRG cost *)
  | Resource_exhausted
      (** goals logically reachable, but every candidate tail violates
          resources — the scenario-A failure mode *)
  | Search_limit of { expansions : int; best_f : float }
      (** RG expansion budget exceeded; [best_f] is an admissible lower
          bound on the cost of any plan a longer search could find *)
  | Deadline_exceeded of {
      phase : string;  (** ["compile"], ["plrg"], or ["rg"] *)
      expansions : int;  (** RG expansions completed (0 outside the RG) *)
      best_f : float option;
          (** admissible lower bound when the RG frontier was reached —
              the same evidence a {!Search_limit} carries *)
    }  (** the request's [config.deadline_ms] expired first *)
  | Certification_failed of string
      (** [config.certify] was set and the independent certifier
          rejected the emitted plan — always a planner bug *)

type stats = Session.stats = {
  total_actions : int;  (** Table 2 col 5: leveled actions after pruning *)
  plrg_props : int;  (** Table 2 col 6 (left) *)
  plrg_actions : int;  (** Table 2 col 6 (right) *)
  slrg_nodes : int;  (** Table 2 col 7 *)
  rg_created : int;  (** Table 2 col 8 (left): RG nodes pushed *)
  rg_open_left : int;  (** Table 2 col 8 (right) *)
  rg_expanded : int;
  replay_pruned : int;  (** RG nodes failing optimistic replay on pop *)
  final_replay_rejected : int;
  rg_duplicates : int;
      (** RG nodes dropped on their first pop by duplicate detection:
          permutations of a (pending set, tail action set) pair that an
          earlier popped node claimed *)
  order_repaired : int;
      (** always [0]: the RG search no longer re-sequences candidate
          tails that fail from-init validation.  Kept only for readers
          of the stats record until they drop the field. *)
  slrg_queries : int;  (** SLRG queries that ran an A* (not memoized) *)
  slrg_cache_hits : int;
      (** SLRG queries answered from the solved or capped-bound caches.
          For warm session requests the [slrg_*] fields are per-request
          deltas; for a one-shot {!plan} they equal the oracle totals *)
  slrg_suffix_harvested : int;
      (** exact SLRG cache entries recorded by suffix-cost harvesting
          beyond the queried roots themselves *)
  slrg_bound_promoted : int;
      (** budget-exhausted SLRG bounds later replaced by exact entries *)
  slrg_deferred : int;
      (** RG nodes queued with the cheap PLRG bound instead of an
          up-front SLRG query ([0] with [config.defer_h = false]) *)
  slrg_saved : int;
      (** deferred nodes never refined — SLRG oracle queries eager
          evaluation would have paid that this run skipped entirely *)
  invalidated_actions : int;
      (** leveled actions the session's {!Session.update}s since the
          previous request could not reuse; always 0 for one-shot runs *)
  evicted_entries : int;
      (** SLRG cache entries those updates evicted; always 0 for
          one-shot runs *)
  t_total_ms : float;  (** Table 2 col 9 (left) *)
  t_search_ms : float;  (** Table 2 col 9 (right): graph phases only *)
}

(** Result + stats, the compact summary {!Redeploy.replan} returns. *)
type outcome = { result : (Plan.t, failure_reason) Stdlib.result; stats : stats }

(** Everything a planning run needs.  Build with {!request}; override
    fields with record update syntax ([{ req with config = ... }]). *)
type request = Session.request = {
  topo : Sekitei_network.Topology.t;
  app : Sekitei_spec.Model.app;
  leveling : Sekitei_spec.Leveling.t;
  config : config;
  telemetry : Sekitei_telemetry.Telemetry.t;
}

(** Smart constructor: [config] defaults to {!default_config}, [telemetry]
    to {!Sekitei_telemetry.Telemetry.null} (zero-overhead), [leveling] to
    the empty (greedy) leveling. *)
val request :
  ?config:config ->
  ?telemetry:Sekitei_telemetry.Telemetry.t ->
  ?leveling:Sekitei_spec.Leveling.t ->
  Sekitei_network.Topology.t ->
  Sekitei_spec.Model.app ->
  request

(** One phase of the pipeline: wall time, a characteristic size, and the
    phase's GC footprint ([Gc.quick_stat] deltas bracketing the phase —
    minor-heap words allocated and major collections triggered).  Rising
    allocation pressure is the usual early warning when a phase's wall
    time regresses.  Warm session requests report the compile and plrg
    phases with [ms = 0.] (the work happened in an earlier request or
    update). *)
type phase = Session.phase = {
  ms : float;
  items : int;
  minor_words : float;
  major_collections : int;
}

type phases = Session.phases = {
  compile : phase;  (** items = leveled actions after pruning *)
  plrg : phase;  (** items = relevant propositions *)
  slrg : phase;
      (** items = set nodes generated; [ms] (and the GC fields) = oracle
          construction plus the cumulative footprint of its lazy queries,
          which run {e inside} the RG search (so the slrg phase overlaps
          the rg one) *)
  rg : phase;  (** items = RG nodes created *)
}

type report = Session.report = {
  result : (Plan.t, failure_reason) Stdlib.result;
  phases : phases;
      (** per-phase timings are measured monotonically even with the null
          telemetry; phases not reached report [{ ms = 0.; items = 0 }] *)
  stats : stats;
  explanation : Explain.t option;
      (** per-action cost/level/slack account; [Some] iff
          [config.explain] and the run solved *)
  certificate : Explain.certificate option;
      (** unsolvability evidence; [Some] iff [config.explain] and the
          run failed with {!Unreachable_goal}, {!Search_limit}, or an
          in-search {!Deadline_exceeded} *)
  hquality : Rg.hsample list option;
      (** solution-path heuristic samples, root first; [Some] iff
          [config.profile_h] (empty list when no solution was found) —
          analyze with [Sekitei_harness.Hquality] *)
}

(** Run the planner on a request via a throwaway {!Session.t}.  [adjust]
    is forwarded to {!Compile.compile} (per-placement cost adjustments,
    used by {!Redeploy}).  When the request carries a telemetry handle
    with sinks, the run emits a span tree rooted at ["plan"]
    (compile/leveling, plrg, slrg, rg, replay, per-query
    slrg.query), aggregated counters, and periodic ["rg"] progress
    events; failed runs attach the {!pp_failure}-rendered reason to the
    ["plan"] span end as a ["failure"] attribute.

    [metrics] records the run's lifetime metrics into a shared always-on
    registry (see {!Session.metrics}); a telemetry handle arming a
    {!Sekitei_telemetry.Telemetry.Flight} recorder with a dump path gets
    the ring dumped on [Search_limit] / [Deadline_exceeded] failures and
    escaping exceptions. *)
val plan :
  ?adjust:(comp:string -> node:int -> float) ->
  ?metrics:Sekitei_telemetry.Registry.t ->
  request ->
  report

(** [plan_batch reqs] runs {!plan} on every request, in parallel across
    up to [jobs] domains ({!Sekitei_util.Domain_pool.map}: dynamic load
    balancing, input-order results, earliest-index exception
    propagation).  [jobs] defaults to
    [Domain_pool.default_jobs ()] and is capped at the batch size; any
    value [< 1] also selects the default, and [~jobs:1] runs the batch
    sequentially on the calling domain (no domains spawned) — the
    determinism escape hatch.

    Requests are planned shared-nothing, with one caveat the caller
    owns: a {!Sekitei_telemetry.Telemetry.t} handle carries mutable
    counter state, so each request must have its own handle (or
    {!Sekitei_telemetry.Telemetry.null}); a sink shared between those
    handles must be wrapped with {!Sekitei_telemetry.Telemetry.locked}.

    [metrics] may be one registry shared by the whole batch: its
    per-domain shards keep worker recording contention-free, and each
    worker additionally reports pool-health metrics (["pool.workers"],
    ["pool.items"], ["pool.worker_busy_ms"], ["pool.worker_idle_ms"])
    from its own domain when it finishes. *)
val plan_batch :
  ?adjust:(comp:string -> node:int -> float) ->
  ?jobs:int ->
  ?metrics:Sekitei_telemetry.Registry.t ->
  request list ->
  report list

(** Render a failure reason for humans — the single formatter behind the
    CLI's "No plan:" line and the ["failure"] span attribute
    trace_report surfaces. *)
val pp_failure : Format.formatter -> failure_reason -> unit

val pp_stats : Format.formatter -> stats -> unit

(** The CLI's [Phases:] line: per-phase [ms/items], the SLRG cache
    counters [slrg_cache=hits/harvested/promoted] and the session-reuse
    counters [reuse=invalidated/evicted] (both read from the report's
    [stats]), then per-phase minor kilowords and major collections. *)
val pp_phases : Format.formatter -> report -> unit

(** Phase 3: the main regression graph (paper section 3.2.3).

    A* over totally-ordered plan tails, regressing from the goal
    propositions.  Each node carries the tail built so far and the set of
    propositions still to achieve; expanding a node prepends an action that
    supports at least one pending proposition.  Every tail that reaches
    the top of the open list is replayed forward in its optimistic
    resource map and pruned on failure (early detection of resource and
    QoS violations).  A node whose pending set is empty is a candidate
    solution; it is accepted only when the tail also replays successfully
    from the true initial state.

    The remaining-cost heuristic is the SLRG set cost; path cost is the sum
    of the leveled actions' cost lower bounds, so the first accepted
    solution minimizes the plan's cost lower bound (paper section 4:
    "our algorithm optimizes the minimum cost of the plan").

    The hot path is incremental and lazy: a pushed node carries its
    parent's {!Replay.rstate} snapshot plus its one new action, and only
    when the node is first popped does the search extend the snapshot by
    that action in the [Regression] replay mode — at most once per node,
    since the state survives a deferred re-insertion.  Most pushed nodes
    are never popped and never pay a replay.  On the same first pop a
    duplicate table keyed by (canonical pending set, tail action set)
    drops permutations of a node already popped — nodes agreeing on both
    components regress the same obligations at the same cost.  Dedup
    runs before replay, but only a node that passes replay claims its
    key, so a failing permutation never shadows a passing one.  Candidate
    solutions (empty pending set) are validated by a full from-init
    replay of the tail in execution order and rejected on failure.  That
    replay is order-sensitive while dedup is not, so candidates are exempt
    from duplicate pruning: every permutation that reaches the empty set
    is validated on its own. *)

type stats = {
  created : int;
      (** RG nodes pushed (successors with a finite heuristic); replay and
          dedup run later, on pop *)
  expanded : int;
  open_left : int;  (** nodes left in the A* queue at termination *)
  replay_pruned : int;
      (** nodes discarded on their first pop by optimistic replay *)
  final_replay_rejected : int;  (** complete tails rejected from the init map *)
  duplicates : int;
      (** nodes dropped on their first pop by the duplicate table:
          permutations of a (pending set, action set) pair claimed by an
          earlier popped node that passed replay *)
  order_repaired : int;
      (** always [0]: the search no longer re-sequences rejected
          candidates.  Kept only for readers of the stats record until
          they drop the field. *)
  slrg_deferred : int;
      (** nodes queued with the cheap PLRG bound instead of an SLRG query
          (always [0] with [~defer:false]) *)
  slrg_saved : int;
      (** deferred nodes that terminated still unrefined — oracle queries
          the eager strategy would have paid and this search never ran *)
  slrg : Slrg.counters;
      (** what the SLRG oracle counted during this search (its queries
          run only here) *)
}

(** The search's counters as [(name, value)] pairs — the one naming of
    them.  {!search} publishes exactly this table to the trace (as
    [Counter] totals) and to the registry, so both surfaces carry the
    same [rg.*] / [slrg.*] names and values; [rg.searches] is always 1. *)
val counter_table : stats -> (string * int) list

(** One heuristic-quality sample, recorded (under [?profile]) for every
    node on the ancestor chain of the accepted solution: the node's
    pending-set size, its path cost [g], the SLRG heuristic the search
    expanded it under (with [~defer:true] the value refined at pop), and
    the PLRG h_max value of the same pending set.
    Against the solution cost [C*], the realized cost-to-go of the node
    is [C* - g]; admissibility demands [h <= C* - g] for both columns. *)
type hsample = { set_size : int; g : float; h_slrg : float; h_plrg : float }

(** The best-f open node at budget exhaustion: its tail (execution
    order) and the propositions it still had to achieve — the evidence
    behind a {!Sekitei_core.Planner.failure_reason.Search_limit}
    explanation. *)
type frontier = { f_tail : Action.t list; f_pending : int array }

type result =
  | Solution of Action.t list * Replay.metrics * float  (** tail, metrics, cost bound *)
  | Exhausted  (** no resource-feasible plan (the scenario-A verdict) *)
  | Budget_exceeded of {
      expansions : int;
      best_f : float;  (** admissible lower bound on any plan a longer
                           search could still find *)
      frontier : frontier option;
          (** the node whose pop hit the budget (carries [best_f]) *)
    }
  | Deadline_reached of {
      expansions : int;
      best_f : float;
          (** same admissible lower-bound evidence as [Budget_exceeded],
              produced when the request deadline fired first *)
      frontier : frontier option;
    }

(** [dedup] (default [true]) toggles the duplicate-detection table —
    exposed so tests can assert that pruning never changes the returned
    plan cost.

    [defer] (default [true]) enables lazy two-stage heuristic evaluation:
    successors are queued under the cheap PLRG h_max bound and the
    expensive SLRG oracle query runs only when a node first reaches the
    top of the open list, re-inserting it if the refined f-value exceeds
    the new frontier minimum.  Because the SLRG heuristic dominates the
    PLRG one and node serial numbers are preserved across re-insertion,
    a node is never expanded before its refined f is proven minimal, so
    the admissibility argument — and with it solvability and the optimal
    cost bound — is unchanged; [created]/[duplicates] differ by design
    (SLRG-infeasible successors are detected at pop instead of at push)
    and the savings are reported in [slrg_deferred]/[slrg_saved].  With
    [~defer:false] (the CLI's [--eager-h]) every pushed successor pays an
    SLRG query, including those that replay or dedup later drop on pop.

    The replay is {e not} guaranteed bit-identical, for two reasons the
    oracle shares with {!Session}'s warm-vs-cold contract.  First, a
    budget-exhausted query records a bound that depends on the shared
    escalation pool, which the two modes drain differently.  Second,
    even exact values are path-independent only mathematically: a set
    with several equally-optimal support paths caches the cost of
    whichever query harvested it first, and float addition is not
    associative, so h can differ in the last ulp between query orders —
    enough to swap f-tied frontier nodes, perturb [expanded], and return
    a different equally-cheap optimum.

    [profile], when given, turns on heuristic-quality recording: every
    queued node carries its (set size, g, h) sample chained to its
    ancestors', and on [Solution] the ref receives the accepted node's
    chain, root first.  Per queued node the overhead is one PLRG h_max
    sweep over the pending set and one cons; when absent the search pays
    a single [None] branch per push.

    [telemetry] emits a periodic ["rg"] progress heartbeat (every
    {!Sekitei_telemetry.Telemetry.progress_interval} expansions: open-list
    size, best f, expansions, duplicates) and wraps each final candidate
    validation in a ["replay"] sub-span.

    [deadline] is polled once per expansion (at pop, after heuristic
    refinement); on expiry the search stops with [Deadline_reached]
    carrying the frontier-minimum f as a valid lower bound.

    On return the search publishes its {!counter_table} once, to
    [telemetry] (counter totals) and to the always-on registry [metrics],
    together with the ["rg.open_left"] gauge on both. *)
val search :
  ?max_expansions:int ->
  ?dedup:bool ->
  ?defer:bool ->
  ?profile:hsample list ref ->
  ?telemetry:Sekitei_telemetry.Telemetry.t ->
  ?metrics:Sekitei_telemetry.Registry.t ->
  ?deadline:Sekitei_util.Deadline.t ->
  Problem.t ->
  Plrg.t ->
  Slrg.t ->
  result * stats

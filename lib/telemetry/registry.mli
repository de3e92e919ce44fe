(** Named metric registry — counters, last-value gauges, and
    {!Sekitei_util.Histogram} latency/size distributions — with
    per-domain shards.

    Records land in the {e calling} domain's shard, so each
    [Domain_pool] worker records into private cells and never contends.
    A {!histogram} handle is resolved once, after which {!observe} is a
    histogram array store; locks guard only structure (shard/metric
    creation, snapshot walks), never that fast path.

    {!snapshot} merges every shard into one coherent view: counters sum,
    histograms merge (associatively — see {!Sekitei_util.Histogram}),
    gauges keep the most recent write program-wide.  A snapshot taken
    while other domains are mid-record may miss in-flight increments;
    once recorders are quiescent it is exact, equal to what
    single-domain recording would have produced.

    A handle is bound to the domain that created it — create handles
    from the domain that will record on them (sharing one handle across
    domains reintroduces the data race the shards exist to avoid). *)

type t

(** [create ?rel_error ()] — [rel_error] (default [0.01]) is passed to
    every histogram the registry creates.
    @raise Invalid_argument unless [0 < rel_error < 1]. *)
val create : ?rel_error:float -> unit -> t

val rel_error : t -> float

(** {1 Recording} *)

type histogram

(** Find-or-create the named histogram in the calling domain's shard. *)
val histogram : t -> string -> histogram

val observe : histogram -> float -> unit

(** Name-resolved records for cold paths (resolve shard + metric per
    call). *)

val count : t -> string -> int -> unit

val set_gauge : t -> string -> float -> unit
val observe_ms : t -> string -> float -> unit

(** {1 Snapshots} *)

type snapshot

val snapshot : t -> snapshot

(** Each accessor returns entries sorted by metric name. *)
val counters : snapshot -> (string * int) list

val gauges : snapshot -> (string * float) list
val histograms : snapshot -> (string * Sekitei_util.Histogram.t) list

(** 0 for unknown names. *)
val counter_value : snapshot -> string -> int

val gauge_value : snapshot -> string -> float option
val histogram_value : snapshot -> string -> Sekitei_util.Histogram.t option

(** Combine two snapshots (e.g. from two registries, or saved points in
    time): counters add, histograms merge, and on a gauge-name collision
    the {e right} snapshot wins (snapshots carry no cross-registry write
    ordering).
    @raise Invalid_argument when histograms disagree on [rel_error]. *)
val merge_snapshots : snapshot -> snapshot -> snapshot

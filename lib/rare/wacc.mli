(** Weighted streaming accumulator for importance-sampled estimators.

    The weighted analogue of {!Vstat_runtime.Accum}: a single pass over
    (value, weight) pairs maintains the weight sums S1 = sum(w) and
    S2 = sum(w^2), the self-normalized weighted mean, the weighted M2
    (West's incremental update — the weighted Welford recurrence), and
    value/weight extrema.  From one accumulator the importance-sampling
    layer reads the self-normalized estimate, the reliability-weighted
    variance, and the Kish effective sample size S1^2/S2.

    Like [Accum], merging is associative up to floating-point roundoff —
    but the rare-event estimators never rely on merge order for their
    published numbers: they fold the index-stable per-sample arrays
    serially, so results stay bit-identical across [--jobs] counts.  The
    merge exists for streaming/monitoring consumers. *)

type t

val create : unit -> t

val add : t -> w:float -> float -> unit
(** Fold one weighted sample.  Zero-weight samples still count toward
    {!count} (the trial happened; its weight kills its contribution).
    [w] must be non-negative and finite (not checked here — the hot loop
    trusts the proposal layer, which validates its parameters). *)

val merge : t -> t -> t
[@@vstat.allow "dead-export"] (* floor-tested: wacc merge *)
(** Fresh accumulator equivalent to folding both operands' streams. *)

val count : t -> int
[@@vstat.allow "dead-export"] (* floor-tested: wacc matches descriptive *)
(** Samples folded in, including zero-weight ones. *)

val sum_weights : t -> float
val sum_sq_weights : t -> float
[@@vstat.allow "dead-export"] (* floor-tested: wacc matches descriptive *)

val mean : t -> float
(** Self-normalized weighted mean sum(w x)/sum(w); [nan] when no weight
    has arrived. *)

val variance : t -> float
[@@vstat.allow "dead-export"] (* floor-tested: wacc matches descriptive *)
(** Reliability-weighted unbiased variance
    sum(w (x - mean)^2) / (S1 - S2/S1); [nan] when the effective sample
    size is <= 1. *)

val max_weight : t -> float

val ess : t -> float
(** Kish effective sample size S1^2/S2; 0 when empty or weightless. *)

val dump : t -> float array
[@@vstat.allow "dead-export"] (* test seam: test_rare round-trips it *)
(** Full internal state as a flat vector (count, S1, S2, mean, M2 and
    extrema) — what a checkpoint payload would persist.  [restore (dump
    t)] is state-identical to [t]. *)

val restore : float array -> t
[@@vstat.allow "dead-export"] (* test seam: test_rare round-trips it *)
(** @raise Invalid_argument on a vector that {!dump} cannot have
    produced. *)

(** Mergeable streaming accumulators for parallel Monte Carlo.

    Each worker folds its samples into a private accumulator; the scheduler
    merges the per-worker states when the pool drains.  Merging is exact for
    counts/extrema and numerically stable for mean/variance (Chan et al.'s
    pairwise Welford update), so a merged accumulator agrees with a serial
    fold over the same samples to floating-point roundoff. *)

type t
(** Running count, mean, M2 (sum of squared deviations) and extrema. *)

val create : unit -> t
(** Empty accumulator. *)

val add : t -> float -> unit
(** Fold one sample in (Welford update). *)

val merge : t -> t -> t
[@@vstat.allow "dead-export"] (* floor-tested: accum merged = serial fold *)
(** [merge a b] is a fresh accumulator equivalent to folding [a]'s and
    [b]'s samples into one stream; [a] and [b] are not modified. *)

val of_array : float array -> t

val count : t -> int
[@@vstat.allow "dead-export"] (* floor-tested: accum matches descriptive *)
val mean : t -> float
(** [nan] when empty. *)

val variance : t -> float
[@@vstat.allow "dead-export"] (* floor-tested: accum matches descriptive *)
(** Unbiased (n-1) sample variance; [nan] when [count < 2]. *)

val std : t -> float
val min : t -> float
[@@vstat.allow "dead-export"] (* floor-tested: accum matches descriptive *)
val max : t -> float
[@@vstat.allow "dead-export"] (* floor-tested: accum matches descriptive *)

(** Fixed-range histograms with the same merge contract. *)
module Histogram : sig
  type h

  val create : lo:float -> hi:float -> bins:int -> h
  (** [bins] equal-width bins on [lo, hi); samples outside the range land in
      underflow/overflow counters.  [bins >= 1], [lo < hi]. *)

  val add : h -> float -> unit
  val merge : h -> h -> h
  (** Bin geometry of both operands must match. *)

  val counts : h -> int array
  val underflow : h -> int
  val overflow : h -> int
  val total : h -> int
end

val dump : t -> int * float * float * float * float
(** Full internal state [(count, mean, m2, lo, hi)] — what checkpoint
    snapshots persist.  [restore (dump t)] is state-identical to [t]. *)

val restore : int * float * float * float * float -> t

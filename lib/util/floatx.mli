(** Small floating-point helpers shared across the library. *)

val close : ?rtol:float -> ?atol:float -> float -> float -> bool
[@@vstat.allow "dead-export"] (* test seam: the tests' tolerant compare *)
(** [close a b] holds when |a - b| <= atol + rtol * max(|a|, |b|).
    Defaults: rtol = 1e-9, atol = 1e-12. *)

val clamp : lo:float -> hi:float -> float -> float
(** Restrict a value to [lo, hi]. *)

val linspace : float -> float -> int -> float array
(** [linspace a b n] is [n] evenly spaced points from [a] to [b] inclusive.
    [n] must be >= 2. *)

val logspace : float -> float -> int -> float array
(** [logspace a b n] is [n] points spaced evenly in log10 from 10^a to 10^b. *)

val interp_linear : xs:float array -> ys:float array -> float -> float
(** Piecewise-linear interpolation of the sampled function (xs, ys) at a
    point; [xs] must be strictly increasing.  Extrapolates linearly from the
    end segments. *)

val first_crossing :
  ?start:int ->
  ?min_x:float ->
  xs:float array -> ys:float array -> level:float -> rising:bool -> unit ->
  float option
(** [first_crossing ~xs ~ys ~level ~rising ()] is the abscissa at which the
    sampled waveform first crosses [level] in the requested direction,
    located by linear interpolation inside the bracketing segment.  The scan
    begins at segment index [start] (default 0), and crossings interpolating
    to an abscissa below [min_x] are skipped rather than returned — the
    combination lets a caller restrict the search to "at or after a given
    time" without truncating away the segment that straddles it. *)

val log10_safe : float -> float
(** log10 clamped away from non-positive arguments (returns log10 of a tiny
    positive floor instead of nan/-inf), used for [log10 Ioff] metrics. *)

val softplus : float -> float
[@@vstat.allow "dead-export"] (* floor-tested: reference for the models' inlined copies *)
(** Numerically-stable ln(1 + exp x): linear for large x, exp for small. *)

val pp_table :
  Format.formatter -> header:string list -> rows:string list list -> unit
(** Render an aligned ASCII table (used by the experiment CLI). *)

(** One-dimensional root finding and minimization helpers.

    Used by cell analyses: the DFF setup/hold search is a 1-D root find on
    "does the register still capture the data?", and SNM extraction uses a
    1-D maximization of the embedded-square size. *)

val bisect :
  ?tol:float -> ?max_iter:int -> f:(float -> float) -> lo:float -> hi:float ->
  unit -> float
(** Root of a continuous scalar function on a bracketing interval
    (f(lo) and f(hi) must have opposite signs).
    @raise Invalid_argument if the interval does not bracket a sign change. *)

val bisect_predicate :
  ?tol:float -> ?max_iter:int -> f:(float -> bool) -> lo:float -> hi:float ->
  unit -> float
(** Boundary between a false region (at [lo]) and a true region (at [hi])
    of a monotone predicate — the register pass/fail search.
    @raise Invalid_argument unless f lo = false and f hi = true. *)

val golden_max :
  ?tol:float -> ?max_iter:int -> f:(float -> float) -> lo:float -> hi:float ->
  unit -> float * float
[@@vstat.allow "dead-export"] (* floor-tested: scalar golden max/asymmetric *)
(** Golden-section maximization of a unimodal function; returns (x, f x). *)

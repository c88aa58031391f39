(** Special functions needed by the statistics substrate.

    Implemented from standard rational approximations (Abramowitz & Stegun;
    Acklam's inverse normal CDF) — accurate to well below the Monte Carlo
    noise floor of any experiment in this repository. *)

val erf : float -> float
[@@vstat.allow "dead-export"] (* floor-tested: special erf known *)
(** Error function, |error| < 1.5e-7. *)

val erfc : float -> float
[@@vstat.allow "dead-export"] (* floor-tested: special erfc complement *)
(** Complementary error function. *)

val normal_cdf : float -> float
[@@vstat.allow "dead-export"] (* reference: test_rare's analytic tail *)
(** Standard normal cumulative distribution function. *)

val normal_pdf : float -> float
(** Standard normal probability density function. *)

val normal_quantile : float -> float
(** [normal_quantile p] is the inverse standard normal CDF for
    [p] in (0, 1); relative error < 1.15e-9 (Acklam's algorithm with one
    Halley refinement step).
    @raise Invalid_argument if [p] is outside (0, 1). *)

val log_gamma : float -> float
[@@vstat.allow "dead-export"] (* floor-tested: special log_gamma factorials *)
(** Natural log of the Gamma function (Lanczos), for x > 0. *)

val chi2_quantile : p:float -> dof:int -> float
(** Quantile of the chi-square distribution (used for confidence-ellipse
    scaling, e.g. dof = 2 for bivariate ellipses).  Computed by
    Newton–bisection on the regularized lower incomplete gamma. *)

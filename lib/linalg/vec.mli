(** Vector helpers over plain [float array]. *)

val dot : float array -> float array -> float
[@@vstat.allow "dead-export"] (* floor-tested: vec ops *)
val norm2 : float array -> float
[@@vstat.allow "dead-export"] (* floor-tested: vec ops *)
(** Euclidean norm. *)

val norm_inf : float array -> float
[@@vstat.allow "dead-export"] (* floor-tested: vec ops *)
val sub : float array -> float array -> float array
[@@vstat.allow "dead-export"] (* floor-tested: vec ops *)
val axpy : alpha:float -> x:float array -> y:float array -> unit
[@@vstat.allow "dead-export"] (* floor-tested: vec ops *)
(** In-place y := y + alpha * x. *)

val max_rel_diff : float array -> float array -> float
(** max_i |a_i - b_i| / max(1, |a_i|, |b_i|); convergence metric for Newton. *)

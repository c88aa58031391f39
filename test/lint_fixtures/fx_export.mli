(* Deep-pass fixture: one export per dead-export verdict. *)

val used : int -> int
val internal : int -> int
val tested : int -> int
val unused : int -> int

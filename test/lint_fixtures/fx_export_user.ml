(* The one non-test caller of the dead-export fixture, through a local
   module alias. *)

let twice x =
  let module E = Fx_export in
  E.used (E.used x)

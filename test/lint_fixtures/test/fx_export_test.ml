(* A test-path caller: it keeps [Fx_export.tested] referenced, but only by
   tests. *)

let () = assert (Fx_export.tested 1 = 0)

(* Implementation of the dead-export fixture interface: [used] is called
   from fx_export_user.ml, [internal] only from [used] below, [tested]
   only from test/fx_export_test.ml, and [unused] from nowhere. *)

let internal x = x + 1
let used x = internal x * 2
let tested x = x - 1
let unused x = x * 3

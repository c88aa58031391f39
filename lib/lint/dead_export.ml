(* Phase 2 of the deep lint pass, part 3: dead-export.

   A top-level [val] in a module's [.mli] is dead when no other scanned
   non-test module references it through the project call graph.  A test
   file is one with a [test] path component; test files keep reference
   implementations and seams alive only through an explicit
   [@@vstat.allow "dead-export"] on the [val] (or a lint.allow entry for
   the [.mli]), whose reason sits beside it.  Modules without an [.mli]
   export everything implicitly and are not judged.

   References are resolved exactly as the call graph resolves them
   ({!Callgraph.resolve_export}), counting every site in the module —
   named bindings and the initialization code outside them alike.  A gap
   in that resolution shows up here as a false "dead" finding, so it is
   fixed in the resolution rather than in the allow-list. *)

module S = Summary
module C = Callgraph

let is_test_path file =
  List.mem "test" (String.split_on_char '/' (Allowlist.normalize file))

(* Stands in for the caller of a reference made outside any named
   binding: resolution only reads its (empty) submodule prefix. *)
let toplevel =
  {
    S.fname = ""; fline = 0; fentry = false; fspawner = false; flocks = false;
    fallow_taint = false; refs = []; nondet = [];
  }

let analyze ~allow cg =
  let summaries = C.summaries cg in
  (* (defining file, export) -> the files referencing it, itself included *)
  let users = Hashtbl.create 256 in
  List.iter
    (fun (s : S.t) ->
      let note caller (r : S.reference) =
        match C.resolve_export cg s ~caller r.S.callee with
        | Some ((ts : S.t), name) ->
          let k = (ts.S.sfile, name) in
          Hashtbl.replace users k
            (s.S.sfile :: Option.value ~default:[] (Hashtbl.find_opt users k))
        | None -> ()
      in
      List.iter (fun (f : S.func) -> List.iter (note f) f.S.refs) s.S.funcs;
      List.iter (note toplevel) s.S.init_refs)
    summaries;
  List.concat_map
    (fun (s : S.t) ->
      let intf = Filename.remove_extension s.S.sfile ^ ".mli" in
      if is_test_path s.S.sfile then []
      else
        List.filter_map
          (fun (e : S.export) ->
            let by =
              List.sort_uniq String.compare
                (Option.value ~default:[]
                   (Hashtbl.find_opt users (s.S.sfile, e.S.ename)))
            in
            let others = List.filter (fun f -> f <> s.S.sfile) by in
            let tests = List.filter is_test_path others in
            if
              List.length tests < List.length others
              || e.S.eallow
              || Allowlist.allows allow ~rule:Rules.dead_export ~file:intf
                   ~line:e.S.eline
            then None
            else
              let how =
                match tests with
                | [] when by = [] -> "is referenced nowhere"
                | [] -> "is referenced only inside its own module"
                | ts ->
                  "is referenced only by tests (" ^ String.concat ", " ts ^ ")"
              in
              Some
                (Diagnostic.make ~rule:Rules.dead_export ~file:intf
                   ~line:e.S.eline ~col:0
                   (Printf.sprintf
                      "exported value '%s' %s; drop it from the .mli or \
                       keep it with [@@vstat.allow \"%s\"] and a one-line \
                       reason"
                      e.S.ename how Rules.dead_export)))
          s.S.exports)
    summaries

(* Phase 2 of the deep lint pass, part 2: the two call-path rules.

   determinism-taint — a function is tainted when it contains an
   unsanctioned direct nondeterminism source (exactly the sites the
   per-file determinism rules report) or calls a tainted function; the
   taint set is the least fixpoint over the resolved call graph.  An
   error is emitted for every [@vstat.entry] hot entry point that is
   tainted, carrying the shortest call path from the entry down to the
   source (`a.ml:12 -> b.ml:40 -> Random.float`).

   domain-safety — every function that syntactically contains a
   [Domain.spawn] is a domain root: its body runs on the spawning domain
   and its closure argument on the spawned one, so anything reachable
   from it executes on at least two domains.  An error is emitted for
   every unguarded access to structure-level mutable state reachable
   from a domain root, again with the full path (root -> ... -> access).

   Both rules honour the usual suppression ladder at the *reported* site:
   a binding/expression [@vstat.allow], the [@@@vstat.allow] file floor,
   and the checked-in lint.allow. *)

module S = Summary
module C = Callgraph

let key (s : S.t) (f : S.func) = (s.S.sfile, f.S.fname)

let key_compare (fa, na) (fb, nb) =
  match String.compare fa fb with 0 -> String.compare na nb | c -> c

let loc_str file line = Printf.sprintf "%s:%d" file line

(* Shortest path by breadth-first search from [start] through [edges_of],
   stopping at the first node satisfying [is_goal].  Adjacency is visited
   in callsite order and ties resolve by queue order, so the returned
   path is deterministic.  Returns the node list from start to goal and
   the callsite line taken out of each non-goal node. *)
let bfs_path ~edges_of ~is_goal start =
  let parent = Hashtbl.create 64 in
  let visited = Hashtbl.create 64 in
  Hashtbl.replace visited start ();
  let q = Queue.create () in
  Queue.add start q;
  let goal = ref None in
  while !goal = None && not (Queue.is_empty q) do
    let node = Queue.pop q in
    if is_goal node then goal := Some node
    else
      List.iter
        (fun (line, next) ->
          if not (Hashtbl.mem visited next) then begin
            Hashtbl.replace visited next ();
            Hashtbl.replace parent next (node, line);
            Queue.add next q
          end)
        (edges_of node)
  done;
  match !goal with
  | None -> None
  | Some g ->
    let rec walk acc node =
      match Hashtbl.find_opt parent node with
      | None -> (node, acc)
      | Some (prev, line) -> walk ((line, node) :: acc) prev
    in
    let first, steps = walk [] g in
    Some (first, steps)

(* --- determinism taint -------------------------------------------------- *)

let first_nondet (f : S.func) =
  match
    List.sort
      (fun (a : S.nondet) b -> Int.compare a.S.nline b.S.nline)
      f.S.nondet
  with
  | [] -> None
  | n :: _ -> Some n

let determinism_taint ~allow cg =
  let funcs = C.funcs cg in
  (* Resolved fn->fn edges, computed once. *)
  let edges = Hashtbl.create 256 in
  List.iter
    (fun ((s : S.t), (f : S.func)) ->
      let out =
        List.filter_map
          (fun ((r : S.reference), target) ->
            match target with
            | C.Fn (ts, tf) -> Some (r.S.rline, key ts tf)
            | C.Glob _ -> None)
          (C.out_edges cg s f)
      in
      Hashtbl.replace edges (key s f) out)
    funcs;
  let node : (string * string, S.t * S.func) Hashtbl.t = Hashtbl.create 256 in
  List.iter (fun (s, f) -> Hashtbl.replace node (key s f) (s, f)) funcs;
  (* Least fixpoint by reverse propagation from the direct sources. *)
  let callers = Hashtbl.create 256 in
  List.iter
    (fun (s, f) ->
      let k = key s f in
      List.iter
        (fun (_, callee) ->
          Hashtbl.replace callers callee
            (k :: Option.value ~default:[] (Hashtbl.find_opt callers callee)))
        (Option.value ~default:[] (Hashtbl.find_opt edges k)))
    funcs;
  let tainted = Hashtbl.create 64 in
  let work = Queue.create () in
  List.iter
    (fun ((_, f) as nf) ->
      if f.S.nondet <> [] then begin
        let k = key (fst nf) f in
        Hashtbl.replace tainted k ();
        Queue.add k work
      end)
    funcs;
  while not (Queue.is_empty work) do
    let k = Queue.pop work in
    List.iter
      (fun caller ->
        if not (Hashtbl.mem tainted caller) then begin
          Hashtbl.replace tainted caller ();
          Queue.add caller work
        end)
      (List.sort key_compare
         (Option.value ~default:[] (Hashtbl.find_opt callers k)))
  done;
  (* One finding per tainted, unsuppressed entry point: the shortest path
     to a direct source. *)
  List.filter_map
    (fun ((s : S.t), (f : S.func)) ->
      let k = key s f in
      if not (f.S.fentry && Hashtbl.mem tainted k) then None
      else if
        f.S.fallow_taint
        || List.mem Rules.determinism_taint s.S.floors
        || Allowlist.allows allow ~rule:Rules.determinism_taint
             ~file:s.S.sfile ~line:f.S.fline
      then None
      else
        let edges_of k =
          List.filter
            (fun (_, next) -> Hashtbl.mem tainted next)
            (Option.value ~default:[] (Hashtbl.find_opt edges k))
        in
        let is_goal k =
          match Hashtbl.find_opt node k with
          | Some (_, g) -> g.S.nondet <> []
          | None -> false
        in
        match bfs_path ~edges_of ~is_goal k with
        | None -> None  (* tainted only through edges we cannot re-walk *)
        | Some (_, steps) ->
          let rec render at acc = function
            | [] -> (
              (* [at] is the goal node: append its direct source. *)
              match Hashtbl.find_opt node at with
              | Some (gs, gf) -> (
                match first_nondet gf with
                | Some n ->
                  List.rev
                    (Printf.sprintf "%s (%s)" n.S.nwhat
                       (loc_str gs.S.sfile n.S.nline)
                    :: acc)
                | None -> List.rev acc)
              | None -> List.rev acc)
            | (line, next) :: tl ->
              let step =
                match Hashtbl.find_opt node at with
                | Some (cs, _) -> loc_str cs.S.sfile line
                | None -> loc_str (fst at) line
              in
              render next (step :: acc) tl
          in
          let trace = render k [] steps in
          let source = match List.rev trace with last :: _ -> last | [] -> "?" in
          let msg =
            Printf.sprintf
              "hot entry point '%s' transitively reaches nondeterministic \
               %s through the project call graph (%s); sample values must \
               be pure functions of (index, substream) — sanction the \
               source with [@vstat.allow] or this entry with \
               [@@vstat.allow \"%s\"]"
              f.S.fname source
              (String.concat " \xe2\x86\x92 " trace)
              Rules.determinism_taint
          in
          Some
            (Diagnostic.make ~trace ~rule:Rules.determinism_taint
               ~file:s.S.sfile ~line:f.S.fline ~col:0 msg))
    funcs

(* --- domain safety ------------------------------------------------------ *)

let domain_safety ~allow cg =
  let funcs = C.funcs cg in
  let fn_edges = Hashtbl.create 256 in
  let state_refs = Hashtbl.create 64 in
  (* per function: resolved fn edges and resolved mutable-state accesses *)
  List.iter
    (fun ((s : S.t), (f : S.func)) ->
      let outs = C.out_edges cg s f in
      Hashtbl.replace fn_edges (key s f)
        (List.filter_map
           (fun ((r : S.reference), target) ->
             match target with
             | C.Fn (ts, tf) -> Some (r.S.rline, key ts tf)
             | C.Glob _ -> None)
           outs);
      Hashtbl.replace state_refs (key s f)
        (List.filter_map
           (fun ((r : S.reference), target) ->
             match target with
             | C.Glob (gs, g) -> Some (r, gs, g)
             | C.Fn _ -> None)
           outs))
    funcs;
  let node = Hashtbl.create 256 in
  List.iter (fun (s, f) -> Hashtbl.replace node (key s f) (s, f)) funcs;
  let roots =
    List.filter (fun ((_ : S.t), (f : S.func)) -> f.S.fspawner) funcs
  in
  (* Multi-source BFS with parent pointers: every function reachable from
     any domain root, with a deterministic shortest witness path. *)
  let parent = Hashtbl.create 128 in
  let visited = Hashtbl.create 128 in
  let q = Queue.create () in
  List.iter
    (fun (s, f) ->
      let k = key s f in
      if not (Hashtbl.mem visited k) then begin
        Hashtbl.replace visited k ();
        Queue.add k q
      end)
    roots;
  while not (Queue.is_empty q) do
    let k = Queue.pop q in
    List.iter
      (fun (line, next) ->
        if not (Hashtbl.mem visited next) then begin
          Hashtbl.replace visited next ();
          Hashtbl.replace parent next (k, line);
          Queue.add next q
        end)
      (Option.value ~default:[] (Hashtbl.find_opt fn_edges k))
  done;
  let seen_finding = Hashtbl.create 16 in
  List.concat_map
    (fun ((s : S.t), (f : S.func)) ->
      let k = key s f in
      if not (Hashtbl.mem visited k) then []
      else
        List.filter_map
          (fun ((r : S.reference), (gs : S.t), (g : S.glob)) ->
            let suppressed =
              r.S.rguarded || f.S.flocks || r.S.rallow_ds
              || List.mem Rules.domain_safety s.S.floors
              || Allowlist.allows allow ~rule:Rules.domain_safety
                   ~file:s.S.sfile ~line:r.S.rline
            in
            let fkey = (s.S.sfile, r.S.rline, gs.S.sfile, g.S.gname) in
            if suppressed || Hashtbl.mem seen_finding fkey then None
            else begin
              Hashtbl.replace seen_finding fkey ();
              (* Witness path: walk parents back to the root. *)
              let rec back acc node =
                match Hashtbl.find_opt parent node with
                | Some (prev, line) -> back ((line, node) :: acc) prev
                | None -> (node, acc)
              in
              let root_key, steps = back [] k in
              let root_step =
                match Hashtbl.find_opt node root_key with
                | Some ((rs : S.t), (rf : S.func)) ->
                  Printf.sprintf "%s (domain root '%s')"
                    (loc_str rs.S.sfile rf.S.fline)
                    rf.S.fname
                | None -> loc_str (fst root_key) 0
              in
              let rec callsites at acc = function
                | [] -> List.rev acc
                | (line, next) :: tl ->
                  let step =
                    match Hashtbl.find_opt node at with
                    | Some (cs, _) -> loc_str cs.S.sfile line
                    | None -> loc_str (fst at) line
                  in
                  callsites next (step :: acc) tl
              in
              let trace =
                (root_step :: callsites root_key [] steps)
                @ [ loc_str s.S.sfile r.S.rline ]
              in
              let msg =
                Printf.sprintf
                  "module-level mutable state '%s' (%s, %s) is accessed \
                   without an Atomic/Mutex/Domain.DLS guard on a path \
                   reachable from a domain root (%s); guard the access or \
                   sanction it with [@vstat.allow \"%s\"]"
                  g.S.gname g.S.gkind
                  (loc_str gs.S.sfile g.S.gline)
                  (String.concat " \xe2\x86\x92 " trace)
                  Rules.domain_safety
              in
              Some
                (Diagnostic.make ~trace ~rule:Rules.domain_safety
                   ~file:s.S.sfile ~line:r.S.rline ~col:0 msg)
            end)
          (Option.value ~default:[] (Hashtbl.find_opt state_refs k)))
    funcs

let analyze ~allow cg = determinism_taint ~allow cg @ domain_safety ~allow cg

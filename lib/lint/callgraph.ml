(* Phase 2 of the deep lint pass, part 1: resolving the unqualified
   reference paths recorded in per-module summaries into a project call
   graph.

   Resolution is purely name-based (the pass never types anything) and
   mirrors how this codebase actually spells cross-module calls:

   - [module X = Vstat_foo.Bar] aliases at structure level are expanded
     (the dominant idiom here); [let module X = ... in] aliases were
     already expanded by phase 1, where they are in scope;
   - a leading segment matching a dune library wrapper module (read from
     the [(library (name ...))] stanza of the directory's [dune] file)
     selects that directory, the next segment the module within it;
   - an unqualified module name resolves first within the referencing
     file's own directory, then through [open]ed wrappers, then globally
     if the name is unique across the scanned set;
   - a bare lowercase identifier resolves within the referencing file,
     trying the caller's submodule prefix first, then through the file's
     opens, latest first.

   Unresolvable references (stdlib, external libraries, genuinely
   ambiguous names) are dropped — the deep rules stay conservative and
   can only miss, never invent, an edge. *)

module S = Summary

type target =
  | Fn of S.t * S.func
  | Glob of S.t * S.glob

(* A function's identity: (file, dotted binding name). *)
type key = string * string

let key (s : S.t) (f : S.func) = (s.S.sfile, f.S.fname)

(* A function's resolved outgoing references, in callsite order: calls of
   project functions (callsite line, callee) and accesses of structure-level
   mutable state. *)
type resolved = {
  calls : (int * key) list;
  state : (S.reference * S.t * S.glob) list;
}

type fileinfo = {
  summary : S.t;
  dir : string;
  defs : (string, S.func) Hashtbl.t;   (* dotted name -> binding *)
  globs : (string, S.glob) Hashtbl.t;
  exports : (string, unit) Hashtbl.t;  (* top-level vals of the .mli *)
}

type t = {
  files : (string, fileinfo) Hashtbl.t;        (* file path -> info *)
  by_dir_mod : (string * string, string) Hashtbl.t;  (* (dir, Mod) -> file *)
  by_mod : (string, string list) Hashtbl.t;    (* Mod -> files, sorted *)
  wrapper_dir : (string, string) Hashtbl.t;    (* Wrapper -> dir *)
  order : (S.t * S.func) list;                 (* all funcs, (file, line) order *)
  summaries : S.t list;                        (* file order *)
  resolved : (key, resolved) Hashtbl.t;        (* filled once by [build] *)
}

(* --- dune wrapper discovery --------------------------------------------- *)

let read_file_opt path =
  match open_in_bin path with
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> Some (really_input_string ic (in_channel_length ic)))
  | exception Sys_error _ -> None

let find_substring hay needle from =
  let ln = String.length needle and lh = String.length hay in
  let rec go i =
    if i > lh - ln then None
    else if String.sub hay i ln = needle then Some i
    else go (i + 1)
  in
  go from

let ident_at s i =
  let n = String.length s in
  let rec skip i = if i < n && (s.[i] = ' ' || s.[i] = '\n' || s.[i] = '\t') then skip (i + 1) else i in
  let start = skip i in
  let rec stop j =
    if
      j < n
      && (match s.[j] with
         | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '\'' -> true
         | _ -> false)
    then stop (j + 1)
    else j
  in
  let j = stop start in
  if j > start then Some (String.sub s start (j - start)) else None

(* The wrapper module of a directory's dune library, if any: the first
   [(name ...)] following the first [(library] stanza. *)
let wrapper_of_dune_dir dir =
  match read_file_opt (Filename.concat dir "dune") with
  | None -> None
  | Some contents -> (
    match find_substring contents "(library" 0 with
    | None -> None
    | Some i -> (
      match find_substring contents "(name" i with
      | None -> None
      | Some j -> (
        match ident_at contents (j + 5) with
        | Some name -> Some (String.capitalize_ascii name)
        | None -> None)))

let funcs t = t.order
let summaries t = t.summaries
let summary_of_file t file =
  match Hashtbl.find_opt t.files file with
  | Some fi -> Some fi.summary
  | None -> None

(* --- resolution --------------------------------------------------------- *)

let is_module_seg s = s <> "" && s.[0] >= 'A' && s.[0] <= 'Z'

let rec expand_alias fuel (s : S.t) path =
  if fuel = 0 then path
  else
    match path with
    | first :: rest -> (
      match List.assoc_opt first s.S.aliases with
      | Some target -> expand_alias (fuel - 1) s (target @ rest)
      | None -> path)
    | [] -> path

let lookup_value fi dotted =
  if dotted = "" then None
  else
    match Hashtbl.find_opt fi.defs dotted with
    | Some f -> Some (Fn (fi.summary, f))
    | None -> (
      match Hashtbl.find_opt fi.globs dotted with
      | Some g -> Some (Glob (fi.summary, g))
      | None -> None)

let prefix_of_fname fname =
  match String.rindex_opt fname '.' with
  | None -> ""
  | Some i -> String.sub fname 0 i

(* [lookup] is applied to each candidate module's info and the dotted
   value name, so one walk serves both call-graph targets and exports. *)
let resolve_with t (from : S.t) ~(caller : S.func) ~lookup path0 =
  let norm p =
    match expand_alias 4 from p with "Stdlib" :: rest -> rest | p -> p
  in
  let qualified m rest =
    let from_dir = Filename.dirname from.S.sfile in
    let candidates =
      (* library-wrapper-qualified: Wrapper.Module.value *)
      (match Hashtbl.find_opt t.wrapper_dir m with
      | Some dir -> (
        match rest with
        | sub :: vals when is_module_seg sub -> (
          match Hashtbl.find_opt t.by_dir_mod (dir, sub) with
          | Some file -> [ (file, vals) ]
          | None -> [])
        | _ -> [])
      | None -> [])
      (* same-directory module *)
      @ (match Hashtbl.find_opt t.by_dir_mod (from_dir, m) with
        | Some file -> [ (file, rest) ]
        | None -> [])
      (* modules of opened library wrappers *)
      @ List.concat_map
          (fun op ->
            match op with
            | [ w ] -> (
              match Hashtbl.find_opt t.wrapper_dir w with
              | Some dir -> (
                match Hashtbl.find_opt t.by_dir_mod (dir, m) with
                | Some file -> [ (file, rest) ]
                | None -> [])
              | None -> [])
            | _ -> [])
          from.S.opens
      (* globally unique module name *)
      @ (match Hashtbl.find_opt t.by_mod m with
        | Some [ file ] -> [ (file, rest) ]
        | _ -> [])
    in
    List.find_map
      (fun (file, vals) ->
        match Hashtbl.find_opt t.files file with
        | None -> None
        | Some fi -> lookup fi (String.concat "." vals))
      candidates
  in
  match norm path0 with
  | [] -> None
  | [ x ] when not (is_module_seg x) -> (
    let local =
      match Hashtbl.find_opt t.files from.S.sfile with
      | None -> None
      | Some fi -> (
        let pfx = prefix_of_fname caller.S.fname in
        match if pfx = "" then None else lookup fi (pfx ^ "." ^ x) with
        | Some v -> Some v
        | None -> lookup fi x)
    in
    match local with
    | Some v -> Some v
    | None ->
      List.find_map
        (fun op ->
          match norm (op @ [ x ]) with
          | m :: rest when is_module_seg m -> qualified m rest
          | _ -> None)
        (List.rev from.S.opens))
  | m :: rest when is_module_seg m -> qualified m rest
  | _ -> None

let resolve t from ~caller path =
  resolve_with t from ~caller ~lookup:lookup_value path

(* The module and export a reference names, if it names an export. *)
let resolve_export t from ~caller path =
  resolve_with t from ~caller path ~lookup:(fun fi name ->
      if Hashtbl.mem fi.exports name then Some (fi.summary, name) else None)

(* Resolve every reference of [f] once, in callsite order. *)
let resolve_refs t (s : S.t) (f : S.func) =
  let calls, state =
    List.partition_map
      (fun ((r : S.reference), target) ->
        match target with
        | Fn (ts, tf) -> Either.Left (r.S.rline, key ts tf)
        | Glob (gs, g) -> Either.Right (r, gs, g))
      (List.filter_map
         (fun (r : S.reference) ->
           Option.map (fun target -> (r, target)) (resolve t s ~caller:f r.S.callee))
         (List.sort
            (fun (a : S.reference) b ->
              match Int.compare a.S.rline b.S.rline with
              | 0 -> String.compare (String.concat "." a.S.callee) (String.concat "." b.S.callee)
              | c -> c)
            f.refs))
  in
  { calls; state }

(* The resolved fn->fn edges and mutable-state accesses of a function,
   as [build] computed them. *)
let resolved_of t k =
  Option.value ~default:{ calls = []; state = [] }
    (Hashtbl.find_opt t.resolved k)

let calls t k = (resolved_of t k).calls
let state_refs t k = (resolved_of t k).state

(* --- construction ------------------------------------------------------- *)

let build (summaries : S.t list) =
  let files = Hashtbl.create 64 in
  let by_dir_mod = Hashtbl.create 64 in
  let by_mod : (string, string list) Hashtbl.t = Hashtbl.create 64 in
  let wrapper_dir = Hashtbl.create 8 in
  let seen_dirs = Hashtbl.create 8 in
  List.iter
    (fun (s : S.t) ->
      let dir = Filename.dirname s.S.sfile in
      let defs = Hashtbl.create 16 in
      let globs = Hashtbl.create 4 in
      let exports = Hashtbl.create 16 in
      List.iter (fun (f : S.func) -> Hashtbl.replace defs f.S.fname f) s.S.funcs;
      List.iter (fun (g : S.glob) -> Hashtbl.replace globs g.S.gname g) s.S.globals;
      List.iter
        (fun (e : S.export) -> Hashtbl.replace exports e.S.ename ())
        s.S.exports;
      Hashtbl.replace files s.S.sfile { summary = s; dir; defs; globs; exports };
      Hashtbl.replace by_dir_mod (dir, s.S.modname) s.S.sfile;
      let prev = Option.value ~default:[] (Hashtbl.find_opt by_mod s.S.modname) in
      Hashtbl.replace by_mod s.S.modname
        (List.sort_uniq String.compare (s.S.sfile :: prev));
      if not (Hashtbl.mem seen_dirs dir) then begin
        Hashtbl.replace seen_dirs dir ();
        match wrapper_of_dune_dir dir with
        | Some w -> Hashtbl.replace wrapper_dir w dir
        | None -> ()
      end)
    summaries;
  let summaries =
    List.sort
      (fun (a : S.t) (b : S.t) -> String.compare a.S.sfile b.S.sfile)
      summaries
  in
  let order =
    List.concat_map
      (fun (s : S.t) -> List.map (fun f -> (s, f)) s.S.funcs)
      summaries
  in
  let order =
    List.sort
      (fun ((sa : S.t), (fa : S.func)) (sb, fb) ->
        match String.compare sa.S.sfile sb.S.sfile with
        | 0 -> Int.compare fa.S.fline fb.S.fline
        | c -> c)
      order
  in
  let t =
    {
      files;
      by_dir_mod;
      by_mod;
      wrapper_dir;
      order;
      summaries;
      resolved = Hashtbl.create 256;
    }
  in
  List.iter
    (fun (s, f) -> Hashtbl.replace t.resolved (key s f) (resolve_refs t s f))
    order;
  t

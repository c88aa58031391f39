(* Per-module analysis summaries — phase 1 of the deep (cross-module) lint
   pass.

   One summary is extracted per [.ml] file by the engine's AST walk and
   carries everything phase 2 needs, so phase 2 never re-reads sources:

   - the structure-level value definitions (dotted through submodules),
     each with its outgoing value references (the call-graph edges before
     resolution), its direct nondeterminism sources (exactly the sites the
     per-file determinism rules reported, i.e. already filtered through
     [@vstat.allow] / lint.allow suppression), and flags: is it a
     [@vstat.entry] hot entry point, does it contain a [Domain.spawn]
     (making it a domain root), does it take a [Mutex] lock;
   - the structure-level mutable state (refs, Hashtbl / Buffer / Queue /
     Stack at toplevel, record literals with same-file mutable fields);
   - module aliases and opens, used by phase-2 name resolution;
   - the references made outside any named binding ([let () = ...],
     module-level state initializers), which only the dead-export rule
     reads;
   - the top-level [val]s of the sibling [.mli], when there is one, for
     the dead-export rule;
   - the per-file rule diagnostics, cached alongside so a warm summary
     cache re-lints a file without re-parsing it.

   Summaries serialize to a line-oriented text format keyed by two CRC-32
   digests: [src_digest] over the source bytes (the [.ml], then the [.mli]
   when there is one) and [env_digest] over the engine version, the
   suppression environment and the engine config.  A cache entry whose
   digests disagree with the current file or environment, or that is in
   an older format, is silently discarded and the file re-summarized. *)

type nondet_kind = Nd_random | Nd_wallclock | Nd_hashtbl

let nondet_kind_to_string = function
  | Nd_random -> "random"
  | Nd_wallclock -> "wallclock"
  | Nd_hashtbl -> "hashtbl"

let nondet_kind_of_string = function
  | "random" -> Some Nd_random
  | "wallclock" -> Some Nd_wallclock
  | "hashtbl" -> Some Nd_hashtbl
  | _ -> None

type reference = {
  callee : string list;  (* path as written, [Stdlib] stripped, unresolved *)
  rline : int;
  rguarded : bool;  (* lexically under Mutex.protect / Atomic.* / Domain.DLS *)
  rallow_ds : bool;  (* "domain-safety" allowed at the reference site *)
}

type nondet = {
  nkind : nondet_kind;
  nline : int;
  nwhat : string;  (* e.g. "Random.float", "Unix.gettimeofday" *)
}

type func = {
  fname : string;  (* dotted path inside the module, e.g. "f" or "Sub.f" *)
  fline : int;
  fentry : bool;     (* [@vstat.entry] *)
  fspawner : bool;   (* body contains Domain.spawn *)
  flocks : bool;     (* body takes a Mutex (lock or protect) *)
  fallow_taint : bool;  (* binding carries [@@vstat.allow "determinism-taint"] *)
  refs : reference list;
  nondet : nondet list;
}

type glob = {
  gname : string;
  gline : int;
  gkind : string;  (* "ref" | "Hashtbl" | "Buffer" | ... | "mutable-record" *)
}

type export = {
  ename : string;
  eline : int;  (* line of the [val] in the .mli *)
  eallow : bool;  (* the [val] carries [@@vstat.allow "dead-export"] *)
}

type t = {
  sfile : string;
  src_digest : int;
  env_digest : int;
  modname : string;  (* capitalized basename, the OCaml module name *)
  floors : string list;  (* [@@@vstat.allow] file-floor rules *)
  aliases : (string * string list) list;  (* module X = Path, structure level *)
  opens : string list list;
  globals : glob list;
  funcs : func list;
  init_refs : reference list;  (* outside any named structure-level binding *)
  exports : export list;  (* top-level vals of the sibling .mli *)
  diags : Diagnostic.t list;  (* per-file rule findings, post-suppression *)
}

(* --- serialization ------------------------------------------------------ *)

(* Line-oriented, tab-separated.  Free-form strings (file names, messages,
   nondet descriptions) travel through [String.escaped], so embedded tabs
   and newlines cannot break framing; identifiers and dotted paths are
   tab-free by construction but are escaped anyway for uniformity.
   Cached per-file diagnostics never carry a trace (traces only exist on
   phase-2 findings, which are recomputed every run), so the [diag] line
   has a fixed field count. *)

let magic = "VSUM2"

let bool_to_field b = if b then "1" else "0"

let add_line buf fields =
  Buffer.add_string buf (String.concat "\t" fields);
  Buffer.add_char buf '\n'

let ref_fields tag r =
  [ tag; string_of_int r.rline; bool_to_field r.rguarded;
    bool_to_field r.rallow_ds; String.escaped (String.concat "." r.callee) ]

let to_string t =
  let buf = Buffer.create 1024 in
  add_line buf [ magic ];
  add_line buf [ "key"; string_of_int t.src_digest; string_of_int t.env_digest ];
  add_line buf [ "file"; String.escaped t.sfile ];
  add_line buf [ "mod"; String.escaped t.modname ];
  List.iter (fun r -> add_line buf [ "floor"; String.escaped r ]) t.floors;
  List.iter
    (fun (name, path) ->
      add_line buf
        [ "alias"; String.escaped name; String.escaped (String.concat "." path) ])
    t.aliases;
  List.iter
    (fun path ->
      add_line buf [ "open"; String.escaped (String.concat "." path) ])
    t.opens;
  List.iter
    (fun g ->
      add_line buf
        [ "global"; String.escaped g.gname; string_of_int g.gline;
          String.escaped g.gkind ])
    t.globals;
  List.iter
    (fun f ->
      add_line buf
        [ "fn"; String.escaped f.fname; string_of_int f.fline;
          bool_to_field f.fentry; bool_to_field f.fspawner;
          bool_to_field f.flocks; bool_to_field f.fallow_taint ];
      List.iter (fun r -> add_line buf (ref_fields "ref" r)) f.refs;
      List.iter
        (fun n ->
          add_line buf
            [ "nd"; nondet_kind_to_string n.nkind; string_of_int n.nline;
              String.escaped n.nwhat ])
        f.nondet)
    t.funcs;
  List.iter (fun r -> add_line buf (ref_fields "iref" r)) t.init_refs;
  List.iter
    (fun e ->
      add_line buf
        [ "export"; String.escaped e.ename; string_of_int e.eline;
          bool_to_field e.eallow ])
    t.exports;
  List.iter
    (fun (d : Diagnostic.t) ->
      add_line buf
        [ "diag"; String.escaped d.Diagnostic.rule;
          string_of_int d.Diagnostic.line; string_of_int d.Diagnostic.col;
          String.escaped d.Diagnostic.file;
          String.escaped d.Diagnostic.message ])
    t.diags;
  add_line buf [ "end" ];
  Buffer.contents buf

(* Decoding never raises: any framing, escape or field anomaly yields
   [None] and the caller re-summarizes from source. *)

exception Bad

let unescape s = try Scanf.unescaped s with _ -> raise Bad
let int_field s = match int_of_string_opt s with Some n -> n | None -> raise Bad

let bool_field = function "0" -> false | "1" -> true | _ -> raise Bad

let path_field s =
  match unescape s with "" -> raise Bad | p -> String.split_on_char '.' p

let of_string s =
  let lines = String.split_on_char '\n' s in
  match lines with
  | first :: rest when first = magic -> (
    let src = ref 0 and env = ref 0 in
    let file = ref "" and modname = ref "" in
    let floors = ref [] and aliases = ref [] and opens = ref [] in
    let globals = ref [] and funcs = ref [] and diags = ref [] in
    let init_refs = ref [] and exports = ref [] in
    let cur : func option ref = ref None in
    let finished = ref false in
    let flush_fn () =
      match !cur with
      | None -> ()
      | Some f ->
        funcs :=
          { f with refs = List.rev f.refs; nondet = List.rev f.nondet }
          :: !funcs;
        cur := None
    in
    let reference l g a p =
      { callee = path_field p; rline = int_field l; rguarded = bool_field g;
        rallow_ds = bool_field a }
    in
    let line raw =
      if !finished then (if raw <> "" then raise Bad)
      else
        match String.split_on_char '\t' raw with
        | [ "" ] -> raise Bad
        | [ "key"; a; b ] -> src := int_field a; env := int_field b
        | [ "file"; f ] -> file := unescape f
        | [ "mod"; m ] -> modname := unescape m
        | [ "floor"; r ] -> floors := unescape r :: !floors
        | [ "alias"; n; p ] -> aliases := (unescape n, path_field p) :: !aliases
        | [ "open"; p ] -> opens := path_field p :: !opens
        | [ "global"; n; l; k ] ->
          globals :=
            { gname = unescape n; gline = int_field l; gkind = unescape k }
            :: !globals
        | [ "fn"; n; l; e; sp; lk; at ] ->
          flush_fn ();
          cur :=
            Some
              {
                fname = unescape n; fline = int_field l;
                fentry = bool_field e; fspawner = bool_field sp;
                flocks = bool_field lk; fallow_taint = bool_field at;
                refs = []; nondet = [];
              }
        | [ "ref"; l; g; a; p ] -> (
          match !cur with
          | None -> raise Bad
          | Some f -> cur := Some { f with refs = reference l g a p :: f.refs })
        | [ "iref"; l; g; a; p ] ->
          flush_fn ();
          init_refs := reference l g a p :: !init_refs
        | [ "export"; n; l; a ] ->
          flush_fn ();
          exports :=
            { ename = unescape n; eline = int_field l; eallow = bool_field a }
            :: !exports
        | [ "nd"; k; l; w ] -> (
          match (!cur, nondet_kind_of_string k) with
          | Some f, Some nkind ->
            cur :=
              Some
                {
                  f with
                  nondet =
                    { nkind; nline = int_field l; nwhat = unescape w }
                    :: f.nondet;
                }
          | _ -> raise Bad)
        | [ "diag"; r; l; c; f; m ] ->
          flush_fn ();
          diags :=
            Diagnostic.make ~rule:(unescape r) ~file:(unescape f)
              ~line:(int_field l) ~col:(int_field c) (unescape m)
            :: !diags
        | [ "end" ] -> flush_fn (); finished := true
        | _ -> raise Bad
    in
    match List.iter line rest with
    | () ->
      if not !finished then None
      else
        Some
          {
            sfile = !file;
            src_digest = !src;
            env_digest = !env;
            modname = !modname;
            floors = List.rev !floors;
            aliases = List.rev !aliases;
            opens = List.rev !opens;
            globals = List.rev !globals;
            funcs = List.rev !funcs;
            init_refs = List.rev !init_refs;
            exports = List.rev !exports;
            diags = List.rev !diags;
          }
    | exception Bad -> None)
  | _ -> None

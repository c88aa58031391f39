(* Golden tests for the vstat_lint static-analysis pass (lib/lint), plus
   the dynamic zero-allocation gate over the circuit engine's transient
   inner loop.

   The fixture corpus under lint_fixtures/ contains, per rule family, both
   positive cases (which must be reported at exactly the pinned file:line)
   and negatives (sorted censuses, explicit comparators, [@vstat.allow]
   suppressions, the [@@@vstat.allow] file floor) which must stay silent.
   An exact set comparison covers both directions: a missed violation and
   a false positive both fail the test. *)

module L = Vstat_lint_core
module N = Vstat_circuit.Netlist
module E = Vstat_circuit.Engine

let fixture_root = "lint_fixtures"

(* `dune runtest` runs with the test directory as cwd; a bare
   `dune exec test/test_lint.exe` runs from the project root.  Normalize so
   diagnostic paths (and hence the golden strings) agree. *)
let () =
  if
    (not (Sys.file_exists fixture_root))
    && Sys.file_exists (Filename.concat "test" fixture_root)
  then Sys.chdir "test"

let render (d : L.Diagnostic.t) =
  Printf.sprintf "%s:%d %s" d.L.Diagnostic.file d.L.Diagnostic.line
    d.L.Diagnostic.rule

(* Sorted by (file, line): the engine's report order. *)
let expected_golden =
  [
    "lint_fixtures/fx_allowfile.ml:5 float-compare";
    "lint_fixtures/fx_allowfile.ml:7 float-compare";
    "lint_fixtures/fx_determinism.ml:5 determinism-random";
    "lint_fixtures/fx_determinism.ml:7 determinism-random";
    "lint_fixtures/fx_determinism.ml:9 determinism-wallclock";
    "lint_fixtures/fx_determinism.ml:11 determinism-wallclock";
    "lint_fixtures/fx_determinism.ml:13 determinism-hashtbl-order";
    "lint_fixtures/fx_determinism.ml:15 determinism-hashtbl-order";
    "lint_fixtures/fx_determinism.ml:26 determinism-wallclock";
    "lint_fixtures/fx_float_safety.ml:4 float-compare";
    "lint_fixtures/fx_float_safety.ml:6 float-compare";
    "lint_fixtures/fx_float_safety.ml:8 float-compare";
    "lint_fixtures/fx_float_safety.ml:10 float-compare";
    "lint_fixtures/fx_float_safety.ml:12 float-compare";
    "lint_fixtures/fx_hot.ml:3 hot-path";
    "lint_fixtures/fx_hot.ml:5 hot-path";
    "lint_fixtures/fx_hot.ml:7 hot-path";
    "lint_fixtures/fx_hot.ml:9 hot-path";
    "lint_fixtures/fx_hot.ml:12 hot-path";
    "lint_fixtures/fx_hot_array.ml:3 hot-path";
    "lint_fixtures/fx_hot_array.ml:5 hot-path";
    "lint_fixtures/fx_hot_array.ml:7 hot-path";
    "lint_fixtures/fx_hot_array.ml:9 hot-path";
    "lint_fixtures/fx_taint_c.ml:4 determinism-random";
    "lint_fixtures/fx_weighted_hot.ml:4 hot-path";
    "lint_fixtures/fx_weighted_hot.ml:6 hot-path";
    "lint_fixtures/fx_weighted_hot.ml:8 hot-path";
    "lint_fixtures/fx_weighted_hot.ml:11 hot-path";
    "lint_fixtures/lib/circuit/fx_exn.ml:5 exn-discipline";
    "lint_fixtures/lib/circuit/fx_exn.ml:7 exn-discipline";
    "lint_fixtures/lib/circuit/fx_exn.ml:9 exn-discipline";
    "lint_fixtures/lib/linalg/fx_failwith.ml:6 exn-discipline";
  ]

let test_golden () =
  let cfg = L.Engine.default_config () in
  let files, diags = L.Engine.run cfg [ fixture_root ] in
  Alcotest.(check int) "fixture files scanned" 17 files;
  let parse_errors, rest =
    List.partition (fun d -> d.L.Diagnostic.rule = "parse-error") diags
  in
  (match parse_errors with
  | [ d ] ->
    Alcotest.(check string)
      "parse-error pinned to the unparseable fixture"
      "lint_fixtures/fx_parse_error.ml" d.L.Diagnostic.file
  | ds ->
    Alcotest.failf "expected exactly one parse-error diagnostic, got %d"
      (List.length ds));
  Alcotest.(check (list string))
    "golden diagnostics" expected_golden (List.map render rest)

(* A line-pinned lint.allow entry sanctions exactly one of the two
   violations in fx_allowfile.ml. *)
let test_allow_line_pinned () =
  let allow =
    L.Allowlist.of_string ~file:"<synthetic>"
      "# synthetic allowlist for the test\n\
       float-compare:lint_fixtures/fx_allowfile.ml:5\n"
  in
  let cfg = L.Engine.default_config ~allow () in
  let diags = L.Engine.lint_file cfg "lint_fixtures/fx_allowfile.ml" in
  Alcotest.(check (list string))
    "only the unpinned line remains"
    [ "lint_fixtures/fx_allowfile.ml:7 float-compare" ]
    (List.map render diags)

(* A whole-file entry matches by trailing '/'-separated components, so the
   short form "fx_allowfile.ml" must cover the scanned relative path. *)
let test_allow_whole_file () =
  let allow =
    L.Allowlist.of_string ~file:"<synthetic>" "float-compare:fx_allowfile.ml\n"
  in
  let cfg = L.Engine.default_config ~allow () in
  let diags = L.Engine.lint_file cfg "lint_fixtures/fx_allowfile.ml" in
  Alcotest.(check (list string)) "whole file sanctioned" []
    (List.map render diags)

(* Every rule id exercised by the fixtures must exist in the registry that
   --list-rules and DESIGN.md document. *)
let test_rules_registry () =
  let ids = List.map (fun r -> r.L.Rules.id) L.Rules.all in
  List.iter
    (fun must ->
      Alcotest.(check bool) (must ^ " registered") true (List.mem must ids))
    [
      "determinism-random"; "determinism-hashtbl-order";
      "determinism-wallclock"; "float-compare"; "exn-discipline"; "hot-path";
      "parse-error"; "determinism-taint"; "domain-safety";
    ]


(* --- the deep (cross-module) pass --------------------------------------- *)

let render_trace (d : L.Diagnostic.t) =
  render d
  ^
  match d.L.Diagnostic.trace with
  | [] -> ""
  | steps -> " | " ^ String.concat " \xe2\x86\x92 " steps

(* The two deep rules, pinned exactly: one determinism-taint finding at the
   [@vstat.entry] binding with the full 3-module call path down to the
   Random.float, one domain-safety finding at the unguarded access with the
   full path from the Domain.spawn root.  The sanctioned entry, the
   Mutex.protect'd access and the file-floored fixture must all stay
   silent. *)
let test_deep_golden () =
  let cfg = L.Engine.default_config () in
  let r = L.Engine.run_deep cfg [ fixture_root ] in
  Alcotest.(check int) "fixture files" 17 r.L.Engine.deep_files;
  let deep_only =
    List.filter
      (fun d ->
        d.L.Diagnostic.rule = "determinism-taint"
        || d.L.Diagnostic.rule = "domain-safety")
      r.L.Engine.deep_diags
  in
  Alcotest.(check (list string))
    "deep findings with full call paths"
    [
      "lint_fixtures/fx_domain_state.ml:8 domain-safety | \
       lint_fixtures/fx_domain_root.ml:4 (domain root 'run') \xe2\x86\x92 \
       lint_fixtures/fx_domain_root.ml:5 \xe2\x86\x92 \
       lint_fixtures/fx_domain_mid.ml:3 \xe2\x86\x92 \
       lint_fixtures/fx_domain_state.ml:8";
      "lint_fixtures/fx_taint_a.ml:6 determinism-taint | \
       lint_fixtures/fx_taint_a.ml:6 \xe2\x86\x92 \
       lint_fixtures/fx_taint_b.ml:3 \xe2\x86\x92 \
       Random.float (lint_fixtures/fx_taint_c.ml:4)";
    ]
    (List.map render_trace deep_only)

(* Phase 1 fans out across the runtime pool; the report (including traces,
   which depend on BFS tie-breaking) must be identical at any jobs
   count. *)
let test_deep_jobs_invariance () =
  let cfg = L.Engine.default_config () in
  let a = L.Engine.run_deep ~jobs:1 cfg [ fixture_root ] in
  let b = L.Engine.run_deep ~jobs:4 cfg [ fixture_root ] in
  Alcotest.(check (list string))
    "jobs:1 == jobs:4 diagnostics"
    (List.map render_trace a.L.Engine.deep_diags)
    (List.map render_trace b.L.Engine.deep_diags);
  Alcotest.(check int) "same file count" a.L.Engine.deep_files
    b.L.Engine.deep_files

let write_file path contents =
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc

(* Warm-cache incremental re-lint, pinned by counters the same way the
   sparse backend pins its shared symbolic analyses: cold run summarizes
   everything, warm run summarizes nothing, touching one file re-summarizes
   exactly that file. *)
let test_deep_cache_counters () =
  let dir = Filename.temp_dir "vstat_lint_deep" "" in
  let cache = Filename.concat dir "cache" in
  let src = Filename.concat dir "src" in
  Sys.mkdir src 0o755;
  let file n body = write_file (Filename.concat src n) body in
  file "m_one.ml" "let one () = 1\n";
  file "m_two.ml" "let two () = M_one.one () + 1\n";
  file "m_three.ml" "let three () = M_two.two () + 1\n";
  let cfg = L.Engine.default_config () in
  let counters (r : L.Engine.deep_result) =
    (r.L.Engine.deep_rebuilt, r.L.Engine.deep_cached)
  in
  let r1 = L.Engine.run_deep ~cache_dir:cache cfg [ src ] in
  Alcotest.(check (pair int int)) "cold cache: all rebuilt" (3, 0)
    (counters r1);
  let r2 = L.Engine.run_deep ~cache_dir:cache cfg [ src ] in
  Alcotest.(check (pair int int)) "warm cache: all hits" (0, 3) (counters r2);
  file "m_two.ml" "let two () = M_one.one () + 2\n";
  let r3 = L.Engine.run_deep ~cache_dir:cache cfg [ src ] in
  Alcotest.(check (pair int int))
    "stale digest: only the touched file re-summarizes" (1, 2) (counters r3)

(* Deleting a Mutex.protect guard must produce exactly one domain-safety
   finding — through the warm cache, whose stale source digest forces the
   edited file to re-summarize. *)
let test_guard_deletion () =
  let dir = Filename.temp_dir "vstat_lint_guard" "" in
  let cache = Filename.concat dir "cache" in
  let src = Filename.concat dir "src" in
  Sys.mkdir src 0o755;
  write_file
    (Filename.concat src "g_state.ml")
    "let total = ref 0\n\
     let lock = Mutex.create ()\n\
     let bump () = Mutex.protect lock (fun () -> incr total)\n";
  write_file
    (Filename.concat src "g_root.ml")
    "let run () = Domain.join (Domain.spawn (fun () -> G_state.bump ()))\n";
  let cfg = L.Engine.default_config () in
  let deep (r : L.Engine.deep_result) =
    List.filter
      (fun d -> d.L.Diagnostic.rule = "domain-safety")
      r.L.Engine.deep_diags
  in
  let r1 = L.Engine.run_deep ~cache_dir:cache cfg [ src ] in
  Alcotest.(check int) "guarded access: silent" 0 (List.length (deep r1));
  write_file
    (Filename.concat src "g_state.ml")
    "let total = ref 0\n\
     let lock = Mutex.create ()\n\
     let bump () = incr total\n";
  let r2 = L.Engine.run_deep ~cache_dir:cache cfg [ src ] in
  Alcotest.(check int) "stale digest re-summarizes the edited file" 1
    r2.L.Engine.deep_rebuilt;
  match deep r2 with
  | [ d ] ->
    Alcotest.(check string) "finding lands at the unguarded access"
      "g_state.ml:3 domain-safety"
      (Printf.sprintf "%s:%d %s"
         (Filename.basename d.L.Diagnostic.file)
         d.L.Diagnostic.line d.L.Diagnostic.rule);
    Alcotest.(check bool) "trace walks root -> access" true
      (List.length d.L.Diagnostic.trace >= 2)
  | ds ->
    Alcotest.failf "expected exactly one domain-safety finding, got %d"
      (List.length ds)

(* --- summary serialization ---------------------------------------------- *)

module S = L.Summary

let gen_summary =
  let open QCheck.Gen in
  let seg = string_size ~gen:(char_range 'a' 'z') (int_range 1 6) in
  let upseg = map String.capitalize_ascii seg in
  let path = list_size (int_range 1 3) (oneof [ seg; upseg ]) in
  (* Free-form fields run the full byte range through String.escaped. *)
  let free = string_size ~gen:(map Char.chr (int_range 0 255)) (int_range 0 24) in
  let gen_ref =
    map
      (fun ((p, l), (g, a)) ->
        { S.callee = p; rline = abs l; rguarded = g; rallow_ds = a })
      (pair (pair path small_nat) (pair bool bool))
  in
  let gen_nondet =
    map
      (fun ((k, l), w) ->
        let nkind =
          match k mod 3 with
          | 0 -> S.Nd_random
          | 1 -> S.Nd_wallclock
          | _ -> S.Nd_hashtbl
        in
        { S.nkind; nline = abs l; nwhat = w })
      (pair (pair small_nat small_nat) free)
  in
  let gen_func =
    map
      (fun (((n, l), (e, sp, lk)), (at, rs, ns)) ->
        {
          S.fname = n;
          fline = abs l;
          fentry = e;
          fspawner = sp;
          flocks = lk;
          fallow_taint = at;
          refs = rs;
          nondet = ns;
        })
      (pair
         (pair (pair seg small_nat) (triple bool bool bool))
         (triple bool (small_list gen_ref) (small_list gen_nondet)))
  in
  let gen_glob =
    map
      (fun ((n, l), k) -> { S.gname = n; gline = abs l; gkind = k })
      (pair (pair seg small_nat) seg)
  in
  let gen_diag =
    map
      (fun (((r, f), (l, c)), m) ->
        L.Diagnostic.make ~rule:r ~file:f ~line:(abs l) ~col:(abs c) m)
      (pair (pair (pair seg free) (pair small_nat small_nat)) free)
  in
  map
    (fun (((sfile, (sd, ed)), (modname, floors, aliases)), (opens, (gs, fs), ds)) ->
      {
        S.sfile;
        src_digest = abs sd;
        env_digest = abs ed;
        modname;
        floors;
        aliases;
        opens;
        globals = gs;
        funcs = fs;
        diags = ds;
      })
    (pair
       (pair
          (pair free (pair small_nat small_nat))
          (triple upseg (small_list seg) (small_list (pair upseg path))))
       (triple (small_list path)
          (pair (small_list gen_glob) (small_list gen_func))
          (small_list gen_diag)))

(* Round-trip: the summary cache must reproduce every field bit-exactly
   (no floats anywhere, so polymorphic equality is an honest check). *)
let prop_summary_roundtrip =
  QCheck.Test.make ~name:"summary serialize/deserialize round-trip"
    ~count:200
    (QCheck.make gen_summary)
    (fun s ->
      match S.of_string (S.to_string s) with
      | Some s' -> s' = s
      | None -> false)

(* Decoding never raises and rejects malformed input with [None]: a
   corrupt or truncated cache entry silently falls back to
   re-summarization. *)
let test_summary_corrupt () =
  List.iter
    (fun (label, s) ->
      Alcotest.(check bool) label true (S.of_string s = None))
    [
      ("empty", "");
      ("bad magic", "JUNK\nend\n");
      ("truncated (no end)", "VSUM1\nkey\t1\t2\n");
      ("ref outside fn", "VSUM1\nref\t1\t0\t0\tx\nend\n");
      ("non-numeric digest", "VSUM1\nkey\tx\ty\nend\n");
      ("bad escape", "VSUM1\nfile\t\\q\nend\n");
      ("bad bool", "VSUM1\nfn\tf\t1\t2\t0\t0\nend\n");
      ("trailing junk", "VSUM1\nend\njunk\n");
    ]

(* --- report rendering ---------------------------------------------------- *)

(* All JSON funnels through Report.json_string; a pathological message
   (quotes, backslashes, newlines, raw control bytes) must render to
   exactly this valid document. *)
let test_json_escaping () =
  let d =
    L.Diagnostic.make ~rule:"r\"1" ~file:"a\\b.ml" ~line:1 ~col:2
      "quote \" backslash \\ newline \n tab \t cr \r ctl \x01 done"
  in
  Alcotest.(check string) "pathological message"
    "{\"rule\":\"r\\\"1\",\"file\":\"a\\\\b.ml\",\"line\":1,\"col\":2,\"message\":\"quote \\\" backslash \\\\ newline \\n tab \\t cr \\r ctl \\u0001 done\"}"
    (L.Report.diagnostic_json d);
  let with_path =
    L.Diagnostic.make
      ~trace:[ "x.ml:1"; "Random.float (y.ml:2)" ]
      ~rule:"determinism-taint" ~file:"x.ml" ~line:1 ~col:0 "m"
  in
  Alcotest.(check string) "trace renders as a path array"
    "{\"rule\":\"determinism-taint\",\"file\":\"x.ml\",\"line\":1,\"col\":0,\"message\":\"m\",\"path\":[\"x.ml:1\",\"Random.float (y.ml:2)\"]}"
    (L.Report.diagnostic_json with_path)

(* --- the dynamic allocation gate --------------------------------------- *)

(* The [@vstat.hot] lint rules are the static half of the engine's
   zero-allocation contract; this test is the dynamic half.  It integrates
   a source-free RC circuit (independent sources are the documented
   exception: an out-of-line Waveform.value call boxes its float argument
   and result per source per iteration) twice with different step counts
   and requires the minor-heap allocation of the two runs to be *exactly*
   equal: the fixed per-call costs (the returned raw_trace buffers, boxed
   float arguments of the transient_raw call itself) cancel, so any
   per-step or per-Newton-iteration allocation would surface as a nonzero
   difference over the 100 extra accepted steps.  Both runs stay under the
   256-point initial trace capacity so no buffer growth occurs. *)
let test_zero_alloc_transient () =
  let net = N.create () in
  let gnd = N.ground net in
  let n1 = N.node net "n1" in
  N.resistor net "r1" ~a:n1 ~b:gnd ~ohms:1e3;
  N.capacitor net "c1" ~a:n1 ~b:gnd ~farads:1e-15;
  let eng = E.compile net in
  let dt = 1e-12 in
  let run steps =
    let r = E.transient_raw eng ~tstop:(Float.of_int steps *. dt) ~dt in
    if r.E.raw_len <> steps + 1 then
      Alcotest.failf "expected %d trace points, got %d" (steps + 1)
        r.E.raw_len
  in
  (* Warm-up: one-time costs (first-solve paths, trace buffer sizing). *)
  run 50;
  let m0 = Gc.minor_words () in
  run 100;
  let m1 = Gc.minor_words () in
  run 200;
  let m2 = Gc.minor_words () in
  let first = m1 -. m0 and second = m2 -. m1 in
  Alcotest.(check (float 0.0))
    "minor words for 100 extra transient steps" 0.0 (second -. first)

(* The same methodology over a MOSFET inverter chain driven by a PWL
   edge, where the hot path now includes device evaluation.  Two
   allowances remain, both documented at [Engine.assemble]:
   - a bypass miss calls the device's [eval_derivs] closure, which boxes
     its four float arguments: at most 8 words per model evaluation (the
     VS/BSIM kernels behind it allocate nothing);
   - each independent-source evaluation calls the out-of-line
     [Waveform.value], boxing its time argument and (for a computed
     waveform) its result: at most 4 words per source per assembly.
   The extra steps of the longer run may allocate no more than those
   allowances for the extra model evaluations and assemblies that the
   engine counters report. *)
let test_alloc_mosfet_chain () =
  let module Dm = Vstat_device.Device_model in
  let module Cards = Vstat_device.Cards in
  let module W = Vstat_circuit.Waveform in
  let vdd = Cards.vdd_nominal in
  let nmos = Cards.vs_seed_device ~polarity:Dm.Nmos ~w_nm:300.0 ~l_nm:40.0 in
  let pmos = Cards.bsim_device ~polarity:Dm.Pmos ~w_nm:600.0 ~l_nm:40.0 in
  let net = N.create () in
  let gnd = N.ground net in
  let nvdd = N.node net "vdd" in
  let nin = N.node net "in" in
  N.vsource net "vvdd" ~plus:nvdd ~minus:gnd ~wave:(W.Dc vdd);
  N.vsource net "vin" ~plus:nin ~minus:gnd
    ~wave:(W.pwl [| (20e-12, 0.0); (30e-12, vdd) |]);
  let sources = 2 in
  let prev = ref nin in
  for i = 1 to 4 do
    let out = N.node net (Printf.sprintf "s%d" i) in
    N.mosfet net (Printf.sprintf "mp%d" i) ~d:out ~g:!prev ~s:nvdd ~b:nvdd
      ~dev:pmos;
    N.mosfet net (Printf.sprintf "mn%d" i) ~d:out ~g:!prev ~s:gnd ~b:gnd
      ~dev:nmos;
    N.capacitor net (Printf.sprintf "c%d" i) ~a:out ~b:gnd ~farads:1e-15;
    prev := out
  done;
  let eng = E.compile net in
  let dt = 1e-12 in
  let run steps =
    ignore (E.transient_raw eng ~tstop:(Float.of_int steps *. dt) ~dt)
  in
  run 50;
  let c0 = E.counters eng and m0 = Gc.minor_words () in
  run 100;
  let c1 = E.counters eng and m1 = Gc.minor_words () in
  run 200;
  let c2 = E.counters eng and m2 = Gc.minor_words () in
  let d_words = (m2 -. m1) -. (m1 -. m0) in
  let d_evals =
    (c2.E.model_evaluations - c1.E.model_evaluations)
    - (c1.E.model_evaluations - c0.E.model_evaluations)
  in
  let d_asm =
    (c2.E.assemblies - c1.E.assemblies) - (c1.E.assemblies - c0.E.assemblies)
  in
  let allowance = Float.of_int ((8 * d_evals) + (4 * sources * d_asm)) in
  if d_evals <= 0 || d_asm <= 0 then
    Alcotest.failf "expected extra work in the longer run (%d evals, %d \
                    assemblies)" d_evals d_asm;
  Alcotest.(check bool)
    (Printf.sprintf
       "%.0f extra words <= %.0f (8 x %d model evals + 4 x %d sources x %d \
        assemblies)"
       d_words allowance d_evals sources d_asm)
    true (d_words <= allowance)

(* The sparse counterpart: one KLU-style numeric iteration
   (clear / stamp by precomputed slots / factor / solve) must allocate
   nothing, same methodology as the transient gate above — the 100 extra
   iterations of the second run must cost exactly zero extra minor words.
   The pattern is a periodic tridiagonal (wrap-around couplings force real
   fill-in, so the factor loop runs through fill slots too). *)
let test_zero_alloc_sparse () =
  let module S = Vstat_linalg.Sparse in
  let n = 12 in
  let entries =
    Array.init (3 * n) (fun k ->
        let i = k / 3 in
        match k mod 3 with
        | 0 -> (i, i)
        | 1 -> (i, (i + 1) mod n)
        | _ -> ((i + 1) mod n, i))
  in
  let sym = S.analyze ~n ~entries in
  let num = S.create_numeric sym in
  let diag = Array.init n (fun i -> S.slot sym ~row:i ~col:i) in
  let upper = Array.init n (fun i -> S.slot sym ~row:i ~col:((i + 1) mod n)) in
  let lower = Array.init n (fun i -> S.slot sym ~row:((i + 1) mod n) ~col:i) in
  let rhs = Array.make n 0.0 in
  let vals = S.values num in
  let run iters =
    for _ = 1 to iters do
      S.clear num;
      for i = 0 to n - 1 do
        vals.(diag.(i)) <- 4.0;
        vals.(upper.(i)) <- -1.0;
        vals.(lower.(i)) <- -1.0
      done;
      S.factor num;
      Array.fill rhs 0 n 1.0;
      S.solve_in_place num rhs
    done
  in
  run 50;
  let m0 = Gc.minor_words () in
  run 100;
  let m1 = Gc.minor_words () in
  run 200;
  let m2 = Gc.minor_words () in
  let first = m1 -. m0 and second = m2 -. m1 in
  Alcotest.(check (float 0.0))
    "minor words for 100 extra sparse factor/solve iterations" 0.0
    (second -. first)

let () =
  Alcotest.run "lint"
    [
      ( "fixtures",
        [
          Alcotest.test_case "golden corpus" `Quick test_golden;
          Alcotest.test_case "allowlist line-pinned" `Quick
            test_allow_line_pinned;
          Alcotest.test_case "allowlist whole-file suffix" `Quick
            test_allow_whole_file;
          Alcotest.test_case "rule registry" `Quick test_rules_registry;
        ] );
      ( "deep",
        [
          Alcotest.test_case "deep golden (taint + domain chains)" `Quick
            test_deep_golden;
          Alcotest.test_case "jobs invariance" `Quick
            test_deep_jobs_invariance;
          Alcotest.test_case "summary cache counters" `Quick
            test_deep_cache_counters;
          Alcotest.test_case "guard deletion through warm cache" `Quick
            test_guard_deletion;
        ] );
      ( "serialization",
        [
          QCheck_alcotest.to_alcotest prop_summary_roundtrip;
          Alcotest.test_case "corrupt summaries rejected" `Quick
            test_summary_corrupt;
          Alcotest.test_case "JSON escaping" `Quick test_json_escaping;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "transient inner loop allocates zero" `Quick
            test_zero_alloc_transient;
          Alcotest.test_case "sparse factor/solve loop allocates zero" `Quick
            test_zero_alloc_sparse;
          Alcotest.test_case "MOSFET chain allocates only the allowances"
            `Quick test_alloc_mosfet_chain;
        ] );
    ]

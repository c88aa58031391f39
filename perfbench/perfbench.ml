(* perfbench: one pass of one workload.

     perfbench --workload NAME --seed N --seconds S --trace 0|1

   --trace 0 measures the end-to-end metrics with no instrumentation
   beyond a clock read around each unit of work.  --trace 1 runs the same
   workload with devices timed and spans kept, runs the other workloads
   briefly so that every per-layer metric has a value (a layer a workload
   never reaches is measured on the workload that does), runs the
   fixed-input layer probes, and writes the spans to
   _perfbench/trace-NAME-SEED.jsonl.  Progress and failed checks go to
   stderr; the last line of stdout is the JSON result.  Exit status 1
   means an output check failed. *)

open Common

let workloads = [ "chain48-mc"; "sram-yield-is"; "vstatd-mix" ]

(* Every per-layer metric of a traced pass, in BENCHMARK.json order. *)
let per_layer_names =
  [
    "device.evals_per_sample"; "device.eval_ns"; "device.self_frac";
    "device.vs.eval_ns"; "device.bsim.eval_ns";
    "device.vs.minor_words_per_eval"; "device.bsim.minor_words_per_eval";
    "circuit.newton_per_sample"; "circuit.assemblies_per_sample";
    "circuit.lu_per_sample"; "circuit.accepted_steps_per_sample";
    "circuit.rejected_steps_per_sample"; "circuit.self_ms_per_sample";
    "circuit.minor_words_per_sample"; "linalg.sparse_factor_solve_ns";
    "linalg.dense_factor_solve_ns"; "linalg.symbolic_analyses";
    "cells.build_us_per_sample"; "runtime.pool_busy_frac";
    "runtime.retried_frac"; "runtime.journal_write_ms"; "runtime.peak_rss_mb"; "rare.overhead_frac";
    "rare.ess_frac"; "service.submit_rtt_ms_p50"; "service.submit_rtt_ms_p95";
    "service.dispatch_ms_p50"; "service.dispatch_ms_p95";
    "service.queue_wait_ms_p95"; "service.run_ms_p50.idsat";
    "service.run_ms_p50.sram_snm"; "service.run_ms_p50.inverter_tpd";
    "service.fetch_rtt_ms_p50"; "service.cache_hit_frac";
    "service.requests_per_job"; "service.generator_late_ms_p95";
    "service.overload_latency_ms_p95"; "service.shed_frac";
  ]

(* Set-up repetitions of a measured pass (setup_s is their median) and the
   length of the brief passes a traced run adds for the other workloads. *)
let mc_setup_reps = 5
let daemon_setup_reps = 3
let side_seconds = 5.0

let run name ~full ~trace ~seed ~seconds =
  Printf.eprintf "perfbench: %s (seed %d, %.1f s%s)\n%!" name seed seconds
    (if trace then ", traced" else "");
  match name with
  | "chain48-mc" | "sram-yield-is" ->
    let pipeline, setup_s =
      Mc.build_pipeline ~reps:(if full then mc_setup_reps else 1)
    in
    (if name = "chain48-mc" then Mc.chain48_mc else Mc.sram_yield_is)
      ~pipeline ~setup_s ~trace ~seed ~seconds
  | _ ->
    Svc.vstatd_mix
      ~setup_reps:(if full then daemon_setup_reps else 1)
      ~trace ~seed ~seconds

let usage () =
  prerr_endline
    "usage: perfbench --workload chain48-mc|sram-yield-is|vstatd-mix --seed N \
     --seconds S --trace 0|1";
  exit 2

let () =
  let workload = ref "" and seed = ref Mc.default_seed in
  let seconds = ref 20.0 and trace = ref false in
  let rec parse = function
    | "--workload" :: w :: rest -> workload := w; parse rest
    | "--seed" :: s :: rest -> seed := int_of_string s; parse rest
    | "--seconds" :: s :: rest -> seconds := float_of_string s; parse rest
    | "--trace" :: ("0" | "1" as t) :: rest -> trace := t = "1"; parse rest
    | [] -> ()
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  if not (List.mem !workload workloads && !seconds > 0.0) then usage ();
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let seed = !seed and seconds = !seconds and trace = !trace in
  let own = run !workload ~full:true ~trace ~seed ~seconds in
  let metrics, attempted, failed =
    if not trace then (own.end_to_end, own.attempted, own.failed)
    else begin
      let side =
        List.filter_map
          (fun w ->
            if w = !workload then None
            else Some (run w ~full:false ~trace:true ~seed ~seconds:side_seconds))
          workloads
      in
      let probes = Layers.all (fst (Mc.build_pipeline ~reps:1)) in
      let pool =
        own.per_layer @ probes @ List.concat_map (fun o -> o.per_layer) side
      in
      let metrics =
        List.map
          (fun name ->
            match List.find_opt (fun x -> x.name = name) pool with
            | Some x -> x
            | None -> failwith ("no value for per-layer metric " ^ name))
          per_layer_names
      in
      write_trace ~workload:!workload ~seed
        ~summary:(List.map (fun x -> (x.name, x.value)) own.end_to_end);
      let total f = List.fold_left (fun a o -> a + f o) (f own) side in
      (metrics, total (fun o -> o.attempted), total (fun o -> o.failed))
    end
  in
  List.iter
    (fun x ->
      check ("finite:" ^ x.name) (Float.is_finite x.value) (fun () ->
          "metric has no finite value"))
    metrics;
  let correct = !failed_checks = [] in
  print_endline
    (result_line ~correct ~attempted
       ~failed:(failed + List.length !failed_checks)
       metrics);
  exit (if correct then 0 else 1)

(* The two Monte Carlo workloads, chain48-mc and sram-yield-is, driven
   through the public entry points a user of the library calls.  Layers
   are timed from outside: the sample functions handed to the runtime are
   wrapped, and in a traced pass every device a technology hands out times
   its own eval/eval_derivs. *)

open Common
module E = Vstat_circuit.Engine
module R = Vstat_runtime.Runtime
module DM = Vstat_device.Device_model
module Rng = Vstat_util.Rng
module P = Vstat_core.Pipeline
module Y = Vstat_experiments.Exp_sram_yield
module Rare = Vstat_rare

(* The extraction every sample is drawn from.  Fixed, so the seed only
   moves the Monte Carlo inputs and the reference values stay valid. *)
let pipeline_seed = 42
let bpv_samples = 300

(* setup_s: the median of [reps] complete pipeline builds, serial (the
   built pipeline is the same for any worker count, and a serial build
   times steadier). *)
let build_pipeline ~reps =
  let built = ref None in
  let times =
    Array.init reps (fun _ ->
        let t0 = now_ns () in
        built :=
          Some
            (P.build ~jobs:1 ~seed:pipeline_seed ~mc_per_geometry:bpv_samples
               ());
        s_since t0)
  in
  (Option.get !built, median times)

(* --- device timing ------------------------------------------------------- *)

(* Per-sample device accumulator.  Int fields keep the update
   allocation-free; one accumulator is owned by one sample, so worker
   domains never share it. *)
type dev_acc = { mutable dev_ns : int; mutable dev_calls : int }

let new_acc () = { dev_ns = 0; dev_calls = 0 }

let timed_device acc (d : DM.t) =
  let eval ~vg ~vd ~vs ~vb =
    let t0 = now_ns () in
    let r = d.eval ~vg ~vd ~vs ~vb in
    acc.dev_ns <- acc.dev_ns + Int64.to_int (Int64.sub (now_ns ()) t0);
    acc.dev_calls <- acc.dev_calls + 1;
    r
  in
  let eval_derivs =
    Option.map
      (fun f ~vg ~vd ~vs ~vb buf ->
        let t0 = now_ns () in
        f ~vg ~vd ~vs ~vb buf;
        acc.dev_ns <- acc.dev_ns + Int64.to_int (Int64.sub (now_ns ()) t0);
        acc.dev_calls <- acc.dev_calls + 1)
      d.eval_derivs
  in
  { d with eval; eval_derivs }

let timed_tech acc (t : Vstat_cells.Celltech.t) =
  {
    t with
    nmos = (fun ~w_nm -> timed_device acc (t.nmos ~w_nm));
    pmos = (fun ~w_nm -> timed_device acc (t.pmos ~w_nm));
  }

(* One unit of work as seen from outside: its value and the clock at its
   start, after the cell was built, and at its end. *)
type unit_rec = {
  value : float;
  t0 : int64;
  t_built : int64;
  t1 : int64;
  dev_ns : int;
  dev_calls : int;
}

let latency_ms r = ns_between r.t0 r.t1 *. 1e-6

(* Exact work counts of [k] units run serially on this domain: engine
   counters and minor words, summed. *)
type counts = { c : E.counters; words : float; units : int }

let count_units ~k run_unit =
  let c0 = E.global_counters () in
  let w0 = Gc.minor_words () in
  let values = Array.init k run_unit in
  let w1 = Gc.minor_words () in
  let c = E.counters_diff (E.global_counters ()) c0 in
  (values, { c; words = w1 -. w0; units = k })

(* The count metrics, per unit.  [count_units] runs twice over the same
   inputs: a count that does not repeat exactly is flagged. *)
let count_metrics ~label ~k run_unit =
  let values, a = count_units ~k run_unit in
  let _, b = count_units ~k run_unit in
  let per x = Float.of_int x /. Float.of_int a.units in
  let pairs =
    [
      ("device.evals_per_sample", a.c.E.model_evaluations, b.c.E.model_evaluations);
      ("circuit.newton_per_sample", a.c.newton_iterations, b.c.newton_iterations);
      ("circuit.assemblies_per_sample", a.c.assemblies, b.c.assemblies);
      ("circuit.lu_per_sample", a.c.lu_factorizations, b.c.lu_factorizations);
      ("circuit.accepted_steps_per_sample", a.c.accepted_steps, b.c.accepted_steps);
      ("circuit.rejected_steps_per_sample", a.c.rejected_steps, b.c.rejected_steps);
    ]
  in
  List.iter
    (fun (name, x, y) ->
      check (label ^ ":exact-count:" ^ name) (x = y) (fun () ->
          Printf.sprintf "%d then %d over the same %d units" x y k))
    pairs;
  check
    (label ^ ":exact-count:circuit.minor_words_per_sample")
    (a.words = b.words)
    (fun () -> Printf.sprintf "%.0f then %.0f words" a.words b.words);
  ( values,
    List.map (fun (name, x, _) -> m name "count" (per x)) pairs
    @ [
        m "circuit.minor_words_per_sample" "words"
          (a.words /. Float.of_int a.units);
      ] )

(* Per-layer shares of a traced window, from its unit records. *)
let traced_layers ~wall_s (recs : unit_rec array) =
  let n = Float.of_int (Array.length recs) in
  let total f = Array.fold_left (fun acc r -> acc +. f r) 0.0 recs in
  let busy = total (fun r -> ns_between r.t0 r.t1) in
  let dev = total (fun r -> Float.of_int r.dev_ns) in
  let calls = total (fun r -> Float.of_int r.dev_calls) in
  let build = total (fun r -> ns_between r.t0 r.t_built) in
  let measure = total (fun r -> ns_between r.t_built r.t1) in
  [
    m "device.eval_ns" "ns" (dev /. calls);
    m "device.self_frac" "frac" (dev /. busy);
    m "circuit.self_ms_per_sample" "ms" ((measure -. dev) *. 1e-6 /. n);
    m "cells.build_us_per_sample" "us" (build *. 1e-3 /. n);
    m "runtime.pool_busy_frac" "frac"
      (busy *. 1e-9 /. (Float.of_int nproc *. wall_s));
  ]

let trace_spans ~kind (recs : unit_rec array) =
  Array.iteri
    (fun i r ->
      let trace_id = Printf.sprintf "%s-%d" kind i in
      add_span ~trace_id "runtime.sample" r.t0 r.t1;
      add_span ~trace_id ~parent:"runtime.sample" "cells.build" r.t0 r.t_built;
      add_span ~trace_id ~parent:"runtime.sample" "circuit.measure" r.t_built
        r.t1
        ~attrs:
          [
            ("device_ns", Float.of_int r.dev_ns);
            ("device_calls", Float.of_int r.dev_calls);
          ])
    recs

(* The end-to-end metrics are taken per sub-window (a chain batch or one
   pilot-plus-IS estimate, about a second each) and reported as
   the median over sub-windows, so a burst of noise from the rest of the
   machine moves one sub-window rather than the whole run. *)
let end_to_end ~setup_s (subs : (unit_rec array * float) list) =
  let per f = median (Array.of_list (List.map f subs)) in
  let lat recs = Array.map latency_ms recs in
  [
    m "setup_s" "s" setup_s;
    m "throughput_per_s" "1/s"
      (per (fun (recs, wall) -> Float.of_int (Array.length recs) /. wall));
    m "latency_ms_p50" "ms" (per (fun (recs, _) -> median (lat recs)));
    m "latency_ms_p95" "ms" (per (fun (recs, _) -> quantile (lat recs) 0.95));
  ]

(* Reference values recorded for the default seed (perfbench/reference.json,
   a flat JSON object of numbers). *)
let reference key =
  let text =
    In_channel.with_open_text "perfbench/reference.json" In_channel.input_all
  in
  let pat = Printf.sprintf "\"%s\":" key in
  let rec find i =
    if i + String.length pat > String.length text then
      failwith ("perfbench/reference.json: no key " ^ key)
    else if String.sub text i (String.length pat) = pat then
      i + String.length pat
    else find (i + 1)
  in
  Scanf.sscanf (String.sub text (find 0) (String.length text - find 0)) " %f"
    Fun.id

let check_reference ~name ~rel_tol got =
  let want = reference name in
  check ("reference:" ^ name)
    (Float.abs (got -. want) <= rel_tol *. Float.abs want)
    (fun () -> Printf.sprintf "got %.17g, recorded %.17g" got want)

let default_seed = 1

(* --- chain48-mc ------------------------------------------------------------

   Path-delay MC over a 48-stage inverter chain: 53 MNA unknowns, so the
   engine's Auto backend picks the sparse solver; 400 transient steps. *)

let stages = 48
let steps = 400

let chain_sample (p : P.t) ~trace ~attempt ~index:_ rng =
  let acc = new_acc () in
  let t0 = now_ns () in
  E.with_options (E.escalate ~attempt E.default_options) (fun () ->
      let tech = Vstat_core.Techs.stochastic_vs p ~rng ~vdd:p.vdd in
      let tech = if trace then timed_tech acc tech else tech in
      let s = Vstat_cells.Chain.sample ~stages tech in
      let t_built = now_ns () in
      let value = Vstat_cells.Chain.measure ~steps s in
      {
        value;
        t0;
        t_built;
        t1 = now_ns ();
        dev_ns = acc.dev_ns;
        dev_calls = acc.dev_calls;
      })

let batch_size = 16 * nproc

(* The substream Runtime.map_rng_*samples hands sample [i] of a run on
   [rng]: substream [i] of one draw off [rng]. *)
let sample_stream rng i =
  Rng.substream ~seed:(Int64.to_int (Rng.bits64 rng)) ~index:i
let retry = R.retry 3

(* Batches of [batch_size] samples until [seconds] have passed, each
   with its wall time.  Batch [b] draws from substream [b] of the run
   seed, so every sample's inputs are a pure function of (seed, batch,
   index). *)
let run_batches ~seconds ~seed ~f =
  let t_start = now_ns () in
  let rec go b acc =
    if b > 0 && s_since t_start >= seconds then (List.rev acc, s_since t_start)
    else
      let t0 = now_ns () in
      let r =
        R.map_rng_attempt_samples ~jobs:nproc ~retry
          ~rng:(Rng.substream ~seed ~index:b)
          ~n:batch_size ~f ()
      in
      go (b + 1) ((r, s_since t0) :: acc)
  in
  go 0 []

(* The chain netlist of [Chain.measure], rebuilt here so the same sample
   can be solved on either linear-solver backend. *)
let chain_window ~vdd = Vstat_cells.Inverter.default_window ~vdd *. Float.of_int (stages / 3)

let chain_netlist (s : Vstat_cells.Chain.sample) =
  let module N = Vstat_circuit.Netlist in
  let window = chain_window ~vdd:s.vdd in
  let net = N.create () in
  let gnd = N.ground net in
  let nvdd = N.node net "vdd" in
  let nin = N.node net "in" in
  N.vsource net "vvdd" ~plus:nvdd ~minus:gnd ~wave:(Vstat_circuit.Waveform.Dc s.vdd);
  N.vsource net "vin" ~plus:nin ~minus:gnd
    ~wave:
      (Vstat_circuit.Waveform.pwl
         [| (0.06 *. window, 0.0); (0.06 *. window *. 1.3, s.vdd) |]);
  let first = N.node net "s0" in
  Vstat_cells.Gates.add_inverter net ~name:"xdrv" ~devices:s.driver ~input:nin
    ~output:first ~vdd_node:nvdd ~gnd;
  let last = ref first in
  Array.iteri
    (fun i devices ->
      let out = N.node net (Printf.sprintf "s%d" (i + 1)) in
      Vstat_cells.Gates.add_inverter net ~name:(Printf.sprintf "x%d" i)
        ~devices ~input:!last ~output:out ~vdd_node:nvdd ~gnd;
      last := out)
    s.stages;
  N.capacitor net "cl" ~a:!last ~b:gnd ~farads:1e-15;
  (net, first, !last, window)

let chain_delay_on backend s =
  let net, first, last, window = chain_netlist s in
  let eng = E.compile ~backend net in
  let trace = E.transient eng ~tstop:window ~dt:(window /. Float.of_int steps) in
  Vstat_circuit.Measure.propagation_delay ~times:trace.E.times
    ~input:(E.node_wave eng trace first) ~output:(E.node_wave eng trace last)
    ~v50:(s.vdd /. 2.0) ~input_rising:false
    ~output_rising:(stages mod 2 = 1)
  |> Option.value ~default:Float.nan

let chain48_mc ~pipeline ~setup_s ~trace ~seed ~seconds =
  let f = chain_sample pipeline ~trace in
  let analyses0 = Vstat_linalg.Sparse.symbolic_analyses () in
  (* Warm-up, not measured: code paths, the sparse symbolic-analysis
     cache, the heap, the pool. *)
  ignore
    (R.map_rng_attempt_samples ~jobs:nproc ~rng:(Rng.create ~seed:(-1))
       ~n:batch_size ~f ());
  let batches, wall_s = run_batches ~seconds ~seed ~f in
  let runs = List.map fst batches in
  let analyses = Vstat_linalg.Sparse.symbolic_analyses () - analyses0 in
  let recs = Array.concat (List.map R.values runs) in
  let failed = List.fold_left (fun a r -> a + R.failed_count r) 0 runs in
  let retried =
    List.fold_left (fun a r -> a + r.R.stats.R.retried_samples) 0 runs
  in
  let attempted = List.length runs * batch_size in
  let first_batch = (List.hd runs).R.cells in
  (* Untraced, serial recomputation of the first samples: jobs 1 against
     jobs nproc, and (in a traced pass) untraced against traced. *)
  let k = 2 in
  let k_rng () = Rng.substream ~seed ~index:0 in
  let serial_values, counts =
    count_metrics ~label:"chain48-mc" ~k (fun i ->
        (chain_sample pipeline ~trace:false ~attempt:0 ~index:i
           (sample_stream (k_rng ()) i))
          .value)
  in
  Array.iteri
    (fun i v ->
      match first_batch.(i) with
      | Ok r ->
        check
          (Printf.sprintf "chain48-mc:identity:sample-%d" i)
          (bits_equal r.value v)
          (fun () ->
            Printf.sprintf "window %.17g, serial untraced %.17g" r.value v)
      | Error e ->
        check "chain48-mc:identity" false (fun () -> e.R.detail))
    serial_values;
  (* Sparse against dense on the same samples, and the rebuilt netlist
     against Chain.measure itself. *)
  ignore
    (R.map_rng_attempt_samples ~jobs:1 ~rng:(k_rng ()) ~n:k
       ~f:(fun ~attempt:_ ~index rng ->
         let tech = Vstat_core.Techs.stochastic_vs pipeline ~rng ~vdd:pipeline.vdd in
         let s = Vstat_cells.Chain.sample ~stages tech in
         let sparse = chain_delay_on E.Sparse s in
         let dense = chain_delay_on E.Dense s in
         check
           (Printf.sprintf "chain48-mc:sparse-vs-dense:sample-%d" index)
           (Float.abs (sparse -. dense) <= 1e-9 *. Float.abs dense)
           (fun () -> Printf.sprintf "sparse %.17g dense %.17g" sparse dense);
         check
           (Printf.sprintf "chain48-mc:rebuilt-netlist:sample-%d" index)
           (bits_equal sparse serial_values.(index))
           (fun () ->
             Printf.sprintf "rebuilt %.17g Chain.measure %.17g" sparse
               serial_values.(index)))
       ());
  Array.iter
    (fun r ->
      check "chain48-mc:delay-range"
        (Float.is_finite r.value && r.value > 0.0 && r.value < chain_window ~vdd:pipeline.P.vdd)
        (fun () -> Printf.sprintf "delay %.17g" r.value))
    recs;
  (* The recorded default-seed mean over the first 8 samples. *)
  let ref_run =
    R.map_rng_attempt_samples ~jobs:nproc ~retry
      ~rng:(Rng.substream ~seed:default_seed ~index:0)
      ~n:8 ~f:(chain_sample pipeline ~trace:false) ()
  in
  let ref_vals = Array.map (fun r -> r.value) (R.values ref_run) in
  check_reference ~name:"chain48_mean_delay_s" ~rel_tol:1e-9
    (sum ref_vals /. Float.of_int (Array.length ref_vals));
  if trace then trace_spans ~kind:"chain" recs;
  {
    end_to_end =
      end_to_end ~setup_s
        (List.map (fun (r, wall) -> (R.values r, wall)) batches);
    per_layer =
      counts
      @ traced_layers ~wall_s recs
      @ [
          m "linalg.symbolic_analyses" "count" (Float.of_int analyses);
          m "runtime.peak_rss_mb" "MB" (peak_rss_mb ());
          m "runtime.retried_frac" "frac"
            (Float.of_int retried /. Float.of_int attempted);
        ];
    attempted;
    failed;
  }

(* --- sram-yield-is ----------------------------------------------------------

   Importance-sampled p(SNM_read < 25 mV) at 0.80 V: a 200-sample pilot
   aims a defensive mixture proposal, then [is_n] samples run through
   Rare.Importance.estimate on Exp_sram_yield.problem.  One such estimate
   is a unit; units repeat with fresh seeds until the window closes. *)

let sram_vdd = 0.80
let sram_threshold = 0.025
let sram_points = 41
let pilot_n = 200
let is_n = 800

(* Seed family of unit [rep]: pilot on s+3, IS on s+1, as
   Exp_sram_yield.estimate_is does for its [seed]. *)
let rep_seed ~seed rep = (seed * 1000) + (4 * rep)

(* Unit records arrive from worker domains; one lock guards the list. *)
let sim_lock = Mutex.create ()
let sims : unit_rec list ref = ref []
let record r = Mutex.protect sim_lock (fun () -> sims := r :: !sims)

let take_sims () =
  Mutex.protect sim_lock (fun () ->
      let l = !sims in
      sims := [];
      Array.of_list (List.rev l))

let snm_unit (p : P.t) ~trace ~attempt z ~measure =
  let acc = new_acc () in
  let t0 = now_ns () in
  let tech = Y.z_tech p ~vdd:sram_vdd z in
  let tech = if trace then timed_tech acc tech else tech in
  E.with_options (E.escalate ~attempt E.default_options) (fun () ->
      let cell = Vstat_cells.Sram6t.sample tech in
      let t_built = now_ns () in
      let v = measure cell in
      let t1 = now_ns () in
      (v, { value = 0.0; t0; t_built; t1; dev_ns = acc.dev_ns; dev_calls = acc.dev_calls }))

let problem p ~trace =
  let base = Y.problem p ~vdd:sram_vdd ~threshold:sram_threshold in
  let simulate =
    if trace then fun ~attempt z ->
      let v, r =
        snm_unit p ~trace ~attempt z ~measure:(fun cell ->
            Vstat_cells.Sram6t.snm ~points:sram_points cell
              ~mode:Vstat_cells.Sram6t.Read)
      in
      record { r with value = v };
      v
    else fun ~attempt z ->
      let t0 = now_ns () in
      let v = base.Rare.Problem.simulate ~attempt z in
      let t1 = now_ns () in
      record { value = v; t0; t_built = t0; t1; dev_ns = 0; dev_calls = 0 };
      v
  in
  { base with simulate }

(* The pilot aims one cone per butterfly lobe at that lobe's linear design
   point z* = w (T - c) / |w|^2, mixed with the nominal density — the
   proposal Exp_sram_yield.estimate_is builds. *)
let aim rows =
  let zs = Array.map snd rows in
  let design metrics =
    let clf = Rare.Classifier.fit ~zs ~metrics in
    let coef = clf.Rare.Classifier.coef in
    let norm2 = Array.fold_left (fun a c -> a +. (c *. c)) 0.0 coef in
    if not (norm2 > 0.0) then failwith "sram pilot: degenerate lobe fit";
    let t = (sram_threshold -. clf.Rare.Classifier.intercept) /. norm2 in
    Array.map (fun c -> c *. t) coef
  in
  let m1 = design (Array.map (fun ((l1, _), _) -> l1) rows) in
  let m2 = design (Array.map (fun ((_, l2), _) -> l2) rows) in
  Rare.Proposal.mixture ~scale:1.0 ~means:[| Array.make Y.dim 0.0; m1; m2 |] ()

type estimate = {
  pilot : ((float * float) * float array) R.run;
  proposal : Rare.Proposal.t;
  res : Rare.Importance.result;
  pilot_wall : float;
  is_wall : float;
  pilot_recs : unit_rec array;
  is_recs : unit_rec array;
}

let estimate p ~trace ~seed ~rep =
  let s = rep_seed ~seed rep in
  let std = Rare.Proposal.standard ~dim:Y.dim in
  let t0 = now_ns () in
  let pilot =
    R.map_rng_attempt_samples ~jobs:nproc ~retry
      ~rng:(Rng.create ~seed:(s + 3))
      ~n:pilot_n
      ~f:(fun ~attempt ~index:_ rng ->
        let z = Rare.Proposal.draw std rng in
        let lobes, r =
          snm_unit p ~trace ~attempt z ~measure:(fun cell ->
              Vstat_cells.Sram6t.snm_lobes ~points:sram_points cell
                ~mode:Vstat_cells.Sram6t.Read)
        in
        record { r with value = Float.min (fst lobes) (snd lobes) };
        (lobes, z))
      ()
  in
  let pilot_wall = s_since t0 in
  let pilot_recs = take_sims () in
  let proposal = aim (R.values pilot) in
  let t0 = now_ns () in
  let res =
    Rare.Importance.estimate ~jobs:nproc ~retry ~proposal
      ~problem:(problem p ~trace)
      ~rng:(Rng.create ~seed:(s + 1))
      ~n:is_n ()
  in
  let is_wall = s_since t0 in
  {
    pilot;
    proposal;
    res;
    pilot_wall;
    is_wall;
    pilot_recs;
    is_recs = take_sims ();
  }

let sram_yield_is ~pipeline ~setup_s ~trace ~seed ~seconds =
  (* Warm-up, not measured. *)
  ignore (estimate pipeline ~trace ~seed:(-1) ~rep:0);
  let t_start = now_ns () in
  let rec go rep acc =
    if rep > 0 && s_since t_start >= seconds then List.rev acc
    else go (rep + 1) (estimate pipeline ~trace ~seed ~rep :: acc)
  in
  let units = go 0 [] in
  let wall_s = s_since t_start in
  let recs =
    Array.concat (List.concat_map (fun u -> [ u.pilot_recs; u.is_recs ]) units)
  in
  let total f = List.fold_left (fun a u -> a + f u) 0 units in
  let totalf f = List.fold_left (fun a u -> a +. f u) 0.0 units in
  let attempted = List.length units * (pilot_n + is_n) in
  let failed =
    total (fun u ->
        R.failed_count u.pilot + u.res.Rare.Importance.n_requested
        - u.res.Rare.Importance.n)
  in
  let retried =
    total (fun u ->
        u.pilot.R.stats.R.retried_samples
        + u.res.Rare.Importance.stats.R.retried_samples)
  in
  List.iter
    (fun u ->
      let r = u.res in
      check "sram-yield-is:estimate"
        Rare.Importance.(
          Float.is_finite r.p_hat && r.p_hat >= 0.0 && r.p_hat <= 1.0
          && r.ess > 0.0 && r.n = r.n_requested)
        (fun () -> Format.asprintf "%a" Rare.Importance.pp r))
    units;
  (* Untraced, serial recomputation of the first IS samples of unit 0
     through Exp_sram_yield.problem itself: jobs 1 against jobs nproc,
     and untraced against traced. *)
  let u0 = List.hd units in
  let plain = Y.problem pipeline ~vdd:sram_vdd ~threshold:sram_threshold in
  let k = 4 in
  let serial_values, counts =
    count_metrics ~label:"sram-yield-is" ~k (fun i ->
        let z =
          Rare.Proposal.draw u0.proposal
            (sample_stream (Rng.create ~seed:(rep_seed ~seed 0 + 1)) i)
        in
        plain.Rare.Problem.simulate ~attempt:0 z)
  in
  Array.iteri
    (fun i v ->
      let w = u0.res.Rare.Importance.metrics.(i) in
      check
        (Printf.sprintf "sram-yield-is:identity:sample-%d" i)
        (bits_equal w v)
        (fun () -> Printf.sprintf "window %.17g, serial untraced %.17g" w v))
    serial_values;
  let reference_unit = estimate pipeline ~trace:false ~seed:default_seed ~rep:0 in
  check_reference ~name:"sram_is_p_hat" ~rel_tol:1e-6
    reference_unit.res.Rare.Importance.p_hat;
  if trace then trace_spans ~kind:"sram" recs;
  let busy rs = sum (Array.map (fun r -> ns_between r.t0 r.t1 *. 1e-9) rs) in
  let is_busy = totalf (fun u -> busy u.is_recs) in
  let is_wall = totalf (fun u -> u.is_wall) in
  let ess =
    totalf (fun u -> u.res.Rare.Importance.ess)
    /. Float.of_int (total (fun u -> u.res.Rare.Importance.n))
  in
  {
    end_to_end =
      end_to_end ~setup_s
        (List.map
           (fun u ->
             (Array.append u.pilot_recs u.is_recs, u.pilot_wall +. u.is_wall))
           units);
    per_layer =
      counts
      @ traced_layers ~wall_s recs
      @ [
          m "runtime.peak_rss_mb" "MB" (peak_rss_mb ());
          m "runtime.retried_frac" "frac"
            (Float.of_int retried /. Float.of_int attempted);
          m "rare.ess_frac" "frac" ess;
          m "rare.overhead_frac" "frac"
            (1.0 -. (is_busy /. (Float.of_int nproc *. is_wall)));
        ];
    attempted;
    failed;
  }

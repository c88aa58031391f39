(* Bechamel benchmark harness: one benchmark per paper table/figure plus the
   ablation benches called out in DESIGN.md.

   Groups:
   - fit/*      : nominal extraction cost (Fig. 1)
   - bpv/*      : sensitivity + stacked solve cost, tied vs untied (Fig. 2,
                  Table II ablation)
   - mc/*       : device-level Monte Carlo (Fig. 3/4, Table III), pinned
                  to the serial jobs:1 runtime path
   - mc-parallel/* : the same device-level Monte Carlo through the
                  Vstat_runtime domain pool at the recommended worker
                  count -- compare against mc/* for the parallel speedup
                  (identical samples by the determinism contract)
   - circuit/*  : one Monte Carlo sample of each benchmark circuit
                  (Figs. 5-9)
   - speed/*    : raw model-evaluation cost and per-sample circuit cost for
                  both models through the same engine (Table IV)
   - ablation/* : backward-Euler vs trapezoidal integration on one
                  inverter transient

   Run with: dune exec bench/main.exe *)

open Bechamel
open Toolkit

let pipeline = Vstat_core.Pipeline.build ~seed:42 ~mc_per_geometry:600 ()
let vdd = pipeline.vdd

(* Every sampling benchmark owns a private substream of the master bench
   seed.  Substreams are numbered in definition order, so adding, removing
   or reordering a bench shifts the sample paths of the benches defined
   after it.  (Deterministic per-iteration RNG would make samples
   identical; a per-bench mutable stream is fine since cost is
   state-independent.) *)
let bench_rng =
  let next = ref 0 in
  fun () ->
    incr next;
    Vstat_util.Rng.substream ~seed:99 ~index:!next

let nominal_golden_nmos =
  Vstat_core.Bsim_statistical.nominal_device pipeline.golden_nmos ~w_nm:300.0
    ~l_nm:40.0

let fit_dataset =
  Vstat_core.Extract_nominal.golden_dataset nominal_golden_nmos ~vdd

let seed_params = Vstat_device.Cards.vs_seed_nmos ~w_nm:300.0 ~l_nm:40.0

let bench_fit_objective =
  Test.make ~name:"fit/objective-eval"
    (Staged.stage (fun () ->
         Vstat_core.Extract_nominal.objective
           ~polarity:Vstat_device.Device_model.Nmos fit_dataset seed_params))

let observations = pipeline.observations_nmos

let bench_bpv options name =
  Test.make ~name
    (Staged.stage (fun () ->
         Vstat_core.Bpv.extract ~vs:pipeline.vs_nmos ~vdd ~options observations))

let bench_bpv_tied =
  bench_bpv
    { Vstat_core.Bpv.default_options with
      known_cinv_alpha = pipeline.golden_nmos.alphas.a_cinv }
    "bpv/extract-tied"

let bench_bpv_untied =
  bench_bpv
    { Vstat_core.Bpv.default_options with
      tie_l_w = false;
      known_cinv_alpha = pipeline.golden_nmos.alphas.a_cinv }
    "bpv/extract-untied"

let bench_sensitivity_row =
  Test.make ~name:"bpv/sensitivity-jacobian"
    (Staged.stage (fun () ->
         Vstat_core.Sensitivity.vs_jacobian pipeline.vs_nmos ~w_nm:600.0
           ~l_nm:40.0 ~vdd))

let bench_mc_device_vs =
  let rng = bench_rng () in
  Test.make ~name:"mc/device-vs-100"
    (Staged.stage (fun () ->
         Vstat_core.Mc_device.of_vs pipeline.vs_nmos ~jobs:1 ~rng ~n:100
           ~w_nm:600.0 ~l_nm:40.0 ~vdd))

let bench_mc_device_bsim =
  let rng = bench_rng () in
  Test.make ~name:"mc/device-bsim-100"
    (Staged.stage (fun () ->
         Vstat_core.Mc_device.of_bsim pipeline.golden_nmos ~jobs:1 ~rng ~n:100
           ~w_nm:600.0 ~l_nm:40.0 ~vdd))

(* Same workload through the domain pool: the ratio to the mc/* twin is the
   parallel speedup (the samples are bit-identical; only scheduling
   differs). *)
let pool_jobs = Vstat_runtime.Runtime.default_jobs ()

let bench_mc_parallel_vs =
  let rng = bench_rng () in
  Test.make ~name:(Printf.sprintf "mc-parallel/device-vs-100-j%d" pool_jobs)
    (Staged.stage (fun () ->
         Vstat_core.Mc_device.of_vs pipeline.vs_nmos ~jobs:pool_jobs ~rng
           ~n:100 ~w_nm:600.0 ~l_nm:40.0 ~vdd))

let bench_mc_parallel_bsim =
  let rng = bench_rng () in
  Test.make ~name:(Printf.sprintf "mc-parallel/device-bsim-100-j%d" pool_jobs)
    (Staged.stage (fun () ->
         Vstat_core.Mc_device.of_bsim pipeline.golden_nmos ~jobs:pool_jobs
           ~rng ~n:100 ~w_nm:600.0 ~l_nm:40.0 ~vdd))

let bench_ellipse =
  let samples =
    Vstat_core.Mc_device.of_vs pipeline.vs_nmos
      ~rng:(Vstat_util.Rng.create ~seed:3)
      ~n:1000 ~w_nm:600.0 ~l_nm:40.0 ~vdd
  in
  Test.make ~name:"stats/fig4-ellipses"
    (Staged.stage (fun () ->
         List.map
           (fun k ->
             Vstat_stats.Ellipse.of_sigma_level ~n_sigma:k samples.idsat
               samples.log10_ioff)
           [ 1; 2; 3 ]))

let vs_tech rng = Vstat_core.Techs.stochastic_vs pipeline ~rng ~vdd
let bsim_tech rng = Vstat_core.Techs.stochastic_bsim pipeline ~rng ~vdd

let bench_fo3_sample name gate ~wp_nm tech_of =
  let rng = bench_rng () in
  Test.make ~name
    (Staged.stage (fun () ->
         let tech = tech_of (Vstat_util.Rng.split rng) in
         let s =
           Vstat_cells.Fanout.sample gate tech ~wp_nm ~wn_nm:300.0 ~fanout:3
         in
         Vstat_cells.Fanout.measure s))

let bench_dff_capture name tech_of =
  (* One capture transient: the unit of work inside the setup-time
     bisection (a full bisection is ~10 of these). *)
  let rng = bench_rng () in
  Test.make ~name
    (Staged.stage (fun () ->
         let tech = tech_of (Vstat_util.Rng.split rng) in
         let s = Vstat_cells.Dff.sample tech in
         Vstat_cells.Dff.capture_ok s ~t_d:150e-12 ~data_rising:true))

let bench_sram_snm name tech_of =
  let rng = bench_rng () in
  Test.make ~name
    (Staged.stage (fun () ->
         let tech = tech_of (Vstat_util.Rng.split rng) in
         let cell = Vstat_cells.Sram6t.sample tech in
         Vstat_cells.Sram6t.snm cell ~mode:Vstat_cells.Sram6t.Read))

let bench_model_eval name dev =
  Test.make ~name
    (Staged.stage (fun () ->
         let acc = ref 0.0 in
         for i = 0 to 99 do
           let vg = 0.9 *. Float.of_int (i mod 10) /. 9.0 in
           acc :=
             !acc
             +. Vstat_device.Device_model.ids dev ~vg ~vd:0.9 ~vs:0.0 ~vb:0.0
         done;
         !acc))

let vs_dev =
  Vstat_core.Vs_statistical.nominal_device pipeline.vs_nmos ~w_nm:600.0
    ~l_nm:40.0

let bsim_dev =
  Vstat_core.Bsim_statistical.nominal_device pipeline.golden_nmos ~w_nm:600.0
    ~l_nm:40.0

(* The ablation inverter. *)
let build_inverter_engine () =
  let tech = Vstat_core.Techs.nominal_vs pipeline ~vdd in
  let devices =
    Vstat_cells.Gates.sample_inverter tech ~wp_nm:600.0 ~wn_nm:300.0
  in
  let net = Vstat_circuit.Netlist.create () in
  let gnd = Vstat_circuit.Netlist.ground net in
  let nvdd = Vstat_circuit.Netlist.node net "vdd" in
  let nin = Vstat_circuit.Netlist.node net "in" in
  let nout = Vstat_circuit.Netlist.node net "out" in
  Vstat_circuit.Netlist.vsource net "vvdd" ~plus:nvdd ~minus:gnd
    ~wave:(Vstat_circuit.Waveform.Dc vdd);
  Vstat_circuit.Netlist.vsource net "vin" ~plus:nin ~minus:gnd
    ~wave:(Vstat_circuit.Waveform.pwl [| (50e-12, 0.0); (60e-12, vdd) |]);
  Vstat_cells.Gates.add_inverter net ~name:"x" ~devices ~input:nin
    ~output:nout ~vdd_node:nvdd ~gnd;
  Vstat_circuit.Netlist.capacitor net "cl" ~a:nout ~b:gnd ~farads:2e-15;
  Vstat_circuit.Engine.compile net

(* Every ablation times this one inverter transient, varying only the
   integrator. *)
let bench_inverter_transient name ~trap =
  Test.make ~name
    (Staged.stage (fun () ->
         let eng = build_inverter_engine () in
         let options = { (Vstat_circuit.Engine.current_options ()) with trap } in
         Vstat_circuit.Engine.transient ~options eng ~tstop:400e-12 ~dt:1e-12))

let tests =
  Test.make_grouped ~name:"vstat"
    [
      bench_fit_objective;
      bench_sensitivity_row;
      bench_bpv_tied;
      bench_bpv_untied;
      bench_mc_device_vs;
      bench_mc_device_bsim;
      bench_mc_parallel_vs;
      bench_mc_parallel_bsim;
      bench_ellipse;
      bench_fo3_sample "circuit/fig5-inv-delay-vs" Vstat_cells.Fanout.Inv
        ~wp_nm:600.0 vs_tech;
      bench_fo3_sample "speed/table4-inv-bsim" Vstat_cells.Fanout.Inv
        ~wp_nm:600.0 bsim_tech;
      bench_fo3_sample "circuit/fig7-nand2-vs" Vstat_cells.Fanout.Nand2
        ~wp_nm:300.0 vs_tech;
      bench_fo3_sample "speed/table4-nand2-bsim" Vstat_cells.Fanout.Nand2
        ~wp_nm:300.0 bsim_tech;
      bench_dff_capture "circuit/fig8-dff-capture-vs" vs_tech;
      bench_dff_capture "speed/table4-dff-bsim" bsim_tech;
      bench_sram_snm "circuit/fig9-sram-snm-vs" vs_tech;
      bench_sram_snm "speed/table4-sram-bsim" bsim_tech;
      bench_model_eval "speed/table4-vs-eval-100" vs_dev;
      bench_model_eval "speed/table4-bsim-eval-100" bsim_dev;
      bench_inverter_transient "ablation/integrator-backward-euler"
        ~trap:false;
      bench_inverter_transient "ablation/integrator-trapezoidal" ~trap:true;
    ]

let run_benchmarks () =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock; minor_allocated ] in
  let cfg =
    Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:(Some 100) ()
  in
  let raw = Benchmark.all cfg instances tests in
  List.iter
    (fun instance ->
      let label = Measure.label instance in
      let results = Analyze.all ols instance raw in
      Fmt.pr "== %s ==@." label;
      let rows = Hashtbl.fold (fun k v acc -> (k, v) :: acc) results [] in
      List.iter
        (fun (name, est) ->
          match Analyze.OLS.estimates est with
          | Some [ per_run ] ->
            if label = "monotonic-clock" then
              Fmt.pr "%-40s %12.1f ns/run@." name per_run
            else Fmt.pr "%-40s %12.0f w/run@." name per_run
          | _ -> Fmt.pr "%-40s (no estimate)@." name)
        (List.sort compare rows))
    instances;
  (* Aggregate circuit-engine work across every bench iteration above. *)
  let c = Vstat_circuit.Engine.global_counters () in
  Fmt.pr "== engine counters (all benches) ==@.";
  List.iter
    (fun (name, v) -> Fmt.pr "%-24s %12d@." name v)
    [
      ("newton-iterations", c.Vstat_circuit.Engine.newton_iterations);
      ("model-evaluations", c.model_evaluations);
      ("assemblies", c.assemblies);
      ("lu-factorizations", c.lu_factorizations);
      ("accepted-steps", c.accepted_steps);
      ("rejected-steps", c.rejected_steps);
      ("breakpoint-hits", c.breakpoint_hits);
    ]

let () = run_benchmarks ()

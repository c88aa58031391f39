(* Integration smoke tests: every experiment runs end-to-end on a reduced
   sample budget and satisfies its headline shape claim. *)

module P = Vstat_core.Pipeline
module E = Vstat_experiments

let pipeline = lazy (P.build ~seed:42 ~mc_per_geometry:800 ())

let test_fig1 () =
  let lazy p = pipeline in
  let t = E.Exp_fig1.run p in
  Alcotest.(check int) "four output curves" 4 (List.length t.id_vd);
  Alcotest.(check int) "two transfer curves" 2 (List.length t.id_vg);
  Alcotest.(check bool) "fit errors reported" true
    (t.rms_log_error > 0.0 && t.rms_log_error < 0.2);
  (* The saturation region of the on-curve must be close pointwise (the
     deep-linear region trades off against low-Vdd accuracy; see
     EXPERIMENTS.md). *)
  let golden, vs = List.nth t.id_vd 3 in
  let worst = ref 0.0 in
  Array.iteri
    (fun i (vds, ig) ->
      if vds > 0.3 && ig > 1e-5 then begin
        let _, iv = vs.points.(i) in
        worst := Float.max !worst (Float.abs (iv -. ig) /. ig)
      end)
    golden.points;
  Alcotest.(check bool) "saturation region within 12%" true (!worst < 0.12)

let test_fig2 () =
  let lazy p = pipeline in
  let t = E.Exp_fig2.run p in
  Alcotest.(check int) "one row per geometry" (List.length p.geometries)
    (List.length t.rows);
  (* The paper reports < 10%; allow slack for the reduced MC budget. *)
  Alcotest.(check bool) "per-geometry vs stacked < 20%" true
    (t.max_abs_diff_pct < 20.0)

let test_table2 () =
  let lazy p = pipeline in
  let t = E.Exp_table2.run p in
  let rel a b = Float.abs (a -. b) /. b in
  Alcotest.(check bool) "NMOS a2 close to truth" true
    (rel t.extracted_nmos.a_l t.truth_nmos.a_l < 0.15);
  Alcotest.(check bool) "PMOS a1 within 30%" true
    (rel t.extracted_pmos.a_vt0 t.truth_pmos.a_vt0 < 0.30);
  Alcotest.(check bool) "a5 is the pass-through" true
    (t.extracted_nmos.a_cinv = t.truth_nmos.a_cinv)

let test_fig3 () =
  let lazy p = pipeline in
  let t = E.Exp_fig3.run ~widths:[ 120.0; 600.0; 1500.0 ] ~n:300 p in
  Alcotest.(check int) "rows" 3 (List.length t.rows);
  let sorted_desc =
    List.for_all2
      (fun a b -> a.E.Exp_fig3.total_pct > b.E.Exp_fig3.total_pct)
      (List.filteri (fun i _ -> i < 2) t.rows)
      (List.tl t.rows)
  in
  Alcotest.(check bool) "mismatch shrinks with width (Pelgrom)" true sorted_desc;
  List.iter
    (fun (r : E.Exp_fig3.row) ->
      Alcotest.(check bool) "prediction tracks MC" true
        (Float.abs (r.predicted_pct -. r.total_pct)
        < 0.2 *. Float.max r.total_pct 1e-9))
    t.rows

let test_table3 () =
  let lazy p = pipeline in
  let t = E.Exp_table3.run ~n:500 p in
  Alcotest.(check int) "six entries" 6 (List.length t.entries);
  Alcotest.(check bool) "worst sigma diff < 15%" true
    (E.Exp_table3.worst_rel_diff t < 0.15);
  (* Pelgrom ordering: sigma(log Ioff) grows as W shrinks. *)
  let sigma label =
    let e =
      List.find
        (fun e -> e.E.Exp_table3.label = label && e.polarity = `N)
        t.entries
    in
    e.E.Exp_table3.bsim_sigma_logioff
  in
  Alcotest.(check bool) "wide < medium < short" true
    (sigma "Wide" < sigma "Medium" && sigma "Medium" < sigma "Short")

let test_fig4 () =
  let lazy p = pipeline in
  let t = E.Exp_fig4.run ~n:400 p in
  List.iter
    (fun (m : E.Exp_fig4.model_result) ->
      List.iteri
        (fun i cov ->
          let nominal = (List.nth m.ellipses i).confidence in
          Alcotest.(check (float 0.08))
            (Printf.sprintf "%s %d-sigma coverage" m.label (i + 1))
            nominal cov)
        m.coverages)
    [ t.golden; t.vs ];
  Alcotest.(check bool) "Ion/Ioff positively correlated in both models" true
    (t.correlation_golden > 0.3 && t.correlation_vs > 0.3)

let test_fig5 () =
  let lazy p = pipeline in
  let t = E.Exp_fig5.run ~n:30 p in
  Alcotest.(check int) "three sizes" 3 (List.length t.results);
  List.iter
    (fun ((_ : E.Exp_fig5.size), (pair : E.Mc_compare.pair)) ->
      Alcotest.(check bool) "means within 10%" true (pair.rel_mean_diff < 0.10);
      Alcotest.(check bool) "overlap > 0.5" true (pair.overlap > 0.5))
    t.results;
  (* Bigger cells have tighter relative spread. *)
  let stds =
    List.map
      (fun (_, (pair : E.Mc_compare.pair)) ->
        Vstat_stats.Descriptive.sigma_over_mu pair.golden)
      t.results
  in
  (match stds with
  | [ s1; s2; s4 ] ->
    Alcotest.(check bool) "sigma/mu shrinks with size" true (s1 > s2 && s2 > s4)
  | _ -> assert false)

let test_fig6 () =
  let lazy p = pipeline in
  let t = E.Exp_fig6.run ~n:40 p in
  Alcotest.(check bool) "multi-x leakage spread" true
    (t.golden.leakage_spread > 2.0 && t.vs.leakage_spread > 2.0);
  Alcotest.(check bool) "frequency spread is tens of percent" true
    (t.golden.freq_spread_pct > 5.0 && t.golden.freq_spread_pct < 100.0);
  Alcotest.(check bool) "leakage means within 20%" true
    (t.leakage_pair.rel_mean_diff < 0.20);
  Alcotest.(check bool) "frequency means within 10%" true
    (t.frequency_pair.rel_mean_diff < 0.10)

let test_fig7 () =
  let lazy p = pipeline in
  let t = E.Exp_fig7.run ~vdds:[ 0.9; 0.55 ] ~n:30 p in
  match t.results with
  | [ hi; lo ] ->
    Alcotest.(check bool) "slower at low vdd" true
      (Vstat_stats.Descriptive.mean lo.pair.golden
      > 1.5 *. Vstat_stats.Descriptive.mean hi.pair.golden);
    Alcotest.(check bool) "relative spread grows at low vdd" true
      (Vstat_stats.Descriptive.sigma_over_mu lo.pair.golden
      > Vstat_stats.Descriptive.sigma_over_mu hi.pair.golden);
    Alcotest.(check bool) "qq series exported" true (Array.length lo.qq_vs > 0)
  | _ -> Alcotest.fail "expected two vdd points"

let test_fig8 () =
  let lazy p = pipeline in
  let t = E.Exp_fig8.run ~n:8 p in
  Alcotest.(check bool) "setup means positive" true
    (Vstat_stats.Descriptive.mean t.setup.golden > 0.0
    && Vstat_stats.Descriptive.mean t.setup.vs > 0.0);
  Alcotest.(check bool) "setup means within 25%" true
    (t.setup.rel_mean_diff < 0.25)

let test_fig9 () =
  let lazy p = pipeline in
  let t = E.Exp_fig9.run ~n:40 p in
  Alcotest.(check bool) "hold snm > read snm (both models)" true
    (Vstat_stats.Descriptive.mean t.hold_snm.golden
     > Vstat_stats.Descriptive.mean t.read_snm.golden
    && Vstat_stats.Descriptive.mean t.hold_snm.vs
       > Vstat_stats.Descriptive.mean t.read_snm.vs);
  Alcotest.(check bool) "hold snm means within 12%" true
    (t.hold_snm.rel_mean_diff < 0.12);
  Alcotest.(check bool) "butterfly exported" true
    (Array.length t.butterfly_read.curve1 > 0)

let test_sram_yield () =
  (* Wiring smoke at a coarse sweep and tiny counts — statistical quality
     and bit-identity live in test_rare and rare_smoke.  The elevated
     threshold (60 mV at vdd 0.8) keeps the event common enough that all
     three estimators see hits with ~50 samples each. *)
  let lazy p = pipeline in
  let t =
    E.Exp_sram_yield.run ~n:60 ~seed:61 ~points:21 ~threshold:0.060
      ~pilot_n:36 p
  in
  let sane (lo, hi) p_hat =
    0.0 <= lo && lo <= hi && hi <= 1.0 && lo <= p_hat && p_hat <= hi
  in
  Alcotest.(check bool) "plain interval sane" true
    (sane (t.plain.ci_lo, t.plain.ci_hi) t.plain.p_hat);
  Alcotest.(check bool) "is interval sane" true
    (sane (t.is.ci_lo, t.is.ci_hi) t.is.p_hat);
  Alcotest.(check bool) "blockade interval sane" true
    (sane (t.blockade.ci_lo, t.blockade.ci_hi) t.blockade.p_hat);
  Alcotest.(check bool) "defensive weights bounded by 3" true
    (t.is.max_weight <= 3.0 +. 1e-12);
  Alcotest.(check bool) "blockade simulates a subset" true
    (t.blockade.n_simulated <= t.blockade.n);
  Alcotest.(check bool) "estimators agree with golden" true
    (t.is_agrees && t.blockade_agrees)

let test_vdd_transfer () =
  let lazy p = pipeline in
  let t = E.Exp_vdd_transfer.run ~vdds:[ 0.9; 0.55 ] ~n:400 p in
  Alcotest.(check int) "two rows" 2 (List.length t.rows);
  (* The nominal-Vdd extraction must transfer: sigma errors bounded. *)
  Alcotest.(check bool) "transfer error < 25%" true
    (E.Exp_vdd_transfer.worst_transfer_error t < 0.25);
  (* Spreads grow as the supply approaches threshold. *)
  (match t.rows with
  | [ hi; lo ] ->
    Alcotest.(check bool) "sigma/idsat grows at low vdd (relative)" true
      (lo.golden_sigma_idsat /. hi.golden_sigma_idsat > 0.0)
  | _ -> assert false)

let test_inter_die () =
  let lazy p = pipeline in
  let t = E.Exp_inter_die.run ~n_dies:6 ~per_die:4 p in
  Alcotest.(check bool) "total >= within" true
    (t.sigma_total >= 0.9 *. t.sigma_within);
  Alcotest.(check int) "sample counts" (6 * 4) (Array.length t.total_delays)

let test_ssta () =
  let lazy p = pipeline in
  let t = E.Exp_ssta.run ~vdds:[ 0.9 ] ~stages:4 ~n:25 p in
  match t.results with
  | [ r ] ->
    Alcotest.(check bool) "mc samples collected" true
      (Array.length r.mc_delays > 15);
    Alcotest.(check bool) "q999 ordering" true (r.mc_q999 > 0.0);
    (* At nominal Vdd the Gaussian model is adequate: within 15%. *)
    Alcotest.(check bool) "gaussian ok at 0.9V" true
      (Float.abs r.tail_underestimate_pct < 15.0)
  | _ -> Alcotest.fail "expected one row"

let test_measure_failure_census () =
  (* A simulation window far too short for any output transition: every
     sample dies with a typed Measure_no_crossing diagnostic, and the
     failure-budget error reports the category census instead of a bag of
     exception strings. *)
  let contains ~sub s =
    let n = String.length sub and m = String.length s in
    let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
    go 0
  in
  let vdd = Vstat_device.Cards.vdd_nominal in
  let tech_of_rng _rng = Vstat_cells.Celltech.nominal_vs_seed ~vdd () in
  let measure tech =
    let s =
      Vstat_cells.Fanout.(sample Inv tech ~wp_nm:600.0 ~wn_nm:300.0 ~fanout:3)
    in
    let r = Vstat_cells.Fanout.measure ~window:1e-15 s in
    r.Vstat_cells.Fanout.tphl
  in
  match
    E.Mc_compare.collect_run ~jobs:2 ~max_failure_frac:0.5
      ~label:"no-crossing" ~n:4 ~tech_of_rng
      ~rng:(Vstat_util.Rng.create ~seed:3) ~measure ()
  with
  | _ -> Alcotest.fail "expected budget Failure"
  | exception Failure msg ->
    Alcotest.(check bool) "census names measure_no_crossing" true
      (contains ~sub:"measure_no_crossing" msg)

let test_table4 () =
  let lazy p = pipeline in
  let t = E.Exp_table4.run ~n_nand2:6 ~n_dff:2 ~n_sram:6 p in
  Alcotest.(check int) "four workloads" 4 (List.length t.rows);
  List.iter
    (fun (r : E.Exp_table4.row) ->
      Alcotest.(check bool) "positive runtimes" true
        (r.vs_runtime_s > 0.0 && r.bsim_runtime_s > 0.0);
      Alcotest.(check bool) "allocation recorded" true
        (r.vs_alloc_mb > 0.0 && r.bsim_alloc_mb > 0.0))
    t.rows

let () =
  Alcotest.run "vstat_experiments"
    [
      ( "experiments",
        [
          Alcotest.test_case "fig1" `Slow test_fig1;
          Alcotest.test_case "fig2" `Slow test_fig2;
          Alcotest.test_case "table2" `Slow test_table2;
          Alcotest.test_case "fig3" `Slow test_fig3;
          Alcotest.test_case "table3" `Slow test_table3;
          Alcotest.test_case "fig4" `Slow test_fig4;
          Alcotest.test_case "fig5" `Slow test_fig5;
          Alcotest.test_case "fig6" `Slow test_fig6;
          Alcotest.test_case "fig7" `Slow test_fig7;
          Alcotest.test_case "fig8" `Slow test_fig8;
          Alcotest.test_case "fig9" `Slow test_fig9;
          Alcotest.test_case "table4" `Slow test_table4;
          Alcotest.test_case "sram yield" `Slow test_sram_yield;
          Alcotest.test_case "vdd transfer" `Slow test_vdd_transfer;
          Alcotest.test_case "inter-die" `Slow test_inter_die;
          Alcotest.test_case "ssta" `Slow test_ssta;
          Alcotest.test_case "measure failure census" `Quick
            test_measure_failure_census;
        ] );
    ]

(* Standard-cell variability sweep: Monte Carlo delay and leakage of a
   fanout-of-3 inverter with the statistical VS model, compared against the
   golden model (the paper's Figs. 5 and 6 workflow).

   Run with:  dune exec examples/inverter_variability.exe *)

module D = Vstat_stats.Descriptive

let n = 150

let mc_delays ~tech_of_rng ~seed =
  let rng = Vstat_util.Rng.create ~seed in
  let delays = Array.make n 0.0 and leaks = Array.make n 0.0 in
  for i = 0 to n - 1 do
    let tech = tech_of_rng (Vstat_util.Rng.split rng) in
    let s = Vstat_cells.Fanout.(sample Inv tech ~wp_nm:600.0 ~wn_nm:300.0 ~fanout:3) in
    let r = Vstat_cells.Fanout.measure s in
    delays.(i) <- r.tpd;
    leaks.(i) <- r.leakage
  done;
  (delays, leaks)

let () =
  let p = Vstat_core.Pipeline.build ~seed:42 ~mc_per_geometry:1000 () in
  let vdd = p.vdd in
  Printf.printf "INV FO3 (P/N = 600/300 nm), %d Monte Carlo samples per model\n\n" n;
  let vs_delays, vs_leaks =
    mc_delays ~seed:1
      ~tech_of_rng:(fun rng -> Vstat_core.Techs.stochastic_vs p ~rng ~vdd)
  in
  let g_delays, g_leaks =
    mc_delays ~seed:2
      ~tech_of_rng:(fun rng -> Vstat_core.Techs.stochastic_bsim p ~rng ~vdd)
  in
  let report name xs scale unit =
    Printf.printf "  %-22s mean=%7.2f%s  sigma=%6.2f%s  sigma/mu=%4.1f%%\n" name
      (scale *. D.mean xs) unit (scale *. D.std xs) unit
      (100.0 *. D.sigma_over_mu xs)
  in
  report "delay (VS)" vs_delays 1e12 "ps";
  report "delay (golden)" g_delays 1e12 "ps";
  report "leakage (VS)" vs_leaks 1e9 "nA";
  report "leakage (golden)" g_leaks 1e9 "nA";
  Printf.printf "\nAgreement (VS vs golden):\n";
  Printf.printf "  delay:   KS=%.3f  density overlap=%.2f\n"
    (Vstat_stats.Compare.ks_statistic vs_delays g_delays)
    (Vstat_stats.Compare.density_overlap vs_delays g_delays);
  Printf.printf "  leakage: KS=%.3f  density overlap=%.2f\n"
    (Vstat_stats.Compare.ks_statistic vs_leaks g_leaks)
    (Vstat_stats.Compare.density_overlap vs_leaks g_leaks);
  let lo, hi = D.min_max vs_leaks in
  Printf.printf "\nLeakage spread across the VS population: %.1fx\n" (hi /. lo);
  let freq = Array.map (fun d -> 1.0 /. d) vs_delays in
  let flo, fhi = D.min_max freq in
  Printf.printf "Frequency (1/delay) spread: %.1f%% of mean\n"
    (100.0 *. (fhi -. flo) /. D.mean freq);
  Printf.printf "\nVS delay density:\n  %s\n"
    (Vstat_stats.Histogram.sparkline
       (Array.map snd (Vstat_stats.Histogram.kde ~points:64 vs_delays)))

type t = {
  n_dies : int;
  per_die : int;
  within_delays : float array;
  total_delays : float array;
  sigma_within : float;
  sigma_total : float;
  sigma_inter_implied : float;
}

let measure_delay tech =
  let s = Vstat_cells.Fanout.(sample Inv tech ~wp_nm:600.0 ~wn_nm:300.0 ~fanout:3) in
  (Vstat_cells.Fanout.measure s).tpd

let run ?(n_dies = 20) ?(per_die = 8) ?(seed = 53)
    ?(spec = Vstat_core.Inter_die.default_40nm) (p : Vstat_core.Pipeline.t) =
  let rng = Vstat_util.Rng.create ~seed in
  let vdd = p.vdd in
  let total = ref [] and within = ref [] in
  for _ = 1 to n_dies do
    let die = Vstat_core.Inter_die.draw spec rng in
    let die_rng = Vstat_util.Rng.split rng in
    let within_rng = Vstat_util.Rng.split rng in
    for _ = 1 to per_die do
      let tech_total =
        Vstat_core.Inter_die.die_tech p ~die ~rng:die_rng ~vdd
      in
      total := measure_delay tech_total :: !total;
      let tech_within =
        Vstat_core.Techs.stochastic_vs p ~rng:within_rng ~vdd
      in
      within := measure_delay tech_within :: !within
    done
  done;
  let within_delays = Array.of_list !within in
  let total_delays = Array.of_list !total in
  let sigma_within = Vstat_stats.Descriptive.std within_delays in
  let sigma_total = Vstat_stats.Descriptive.std total_delays in
  {
    n_dies;
    per_die;
    within_delays;
    total_delays;
    sigma_within;
    sigma_total;
    sigma_inter_implied =
      Vstat_core.Inter_die.decompose_variance ~total:total_delays
        ~within:within_delays;
  }

let pp ppf t =
  Format.fprintf ppf
    "Extension: inter-die + within-die delay variation (eq. 1), %d dies x %d cells@\n"
    t.n_dies t.per_die;
  Format.fprintf ppf
    "  sigma(within-die only)     = %.3f ps@\n\
    \  sigma(total, with global)  = %.3f ps@\n\
    \  implied inter-die sigma    = %.3f ps  (variance subtraction)@\n"
    (1e12 *. t.sigma_within) (1e12 *. t.sigma_total)
    (1e12 *. t.sigma_inter_implied)

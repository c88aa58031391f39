type model_scatter = {
  label : string;
  leakage : float array;
  frequency : float array;
  leakage_spread : float;
  freq_spread_pct : float;
}

type t = {
  n : int;
  golden : model_scatter;
  vs : model_scatter;
  leakage_pair : Mc_compare.pair;
  frequency_pair : Mc_compare.pair;
}

let scatter_of label leakage frequency =
  let lo_l, hi_l = Vstat_stats.Descriptive.min_max leakage in
  let lo_f, hi_f = Vstat_stats.Descriptive.min_max frequency in
  {
    label;
    leakage;
    frequency;
    leakage_spread = hi_l /. lo_l;
    freq_spread_pct =
      100.0 *. (hi_f -. lo_f) /. Vstat_stats.Descriptive.mean frequency;
  }

let run ?(wp_nm = 600.0) ?(wn_nm = 300.0) ?(n = 600) ?(seed = 29)
    (p : Vstat_core.Pipeline.t) =
  let measure tech =
    let s = Vstat_cells.Fanout.(sample Inv tech ~wp_nm ~wn_nm ~fanout:3) in
    let r = Vstat_cells.Fanout.measure s in
    [ r.leakage; 1.0 /. r.tpd ]
  in
  match
    Mc_compare.run_many p ~label:"INV FO3" ~vdd:p.vdd ~n ~seed ~measure
  with
  | [ leakage_pair; frequency_pair ] ->
    {
      n;
      golden =
        scatter_of "golden" leakage_pair.golden frequency_pair.golden;
      vs = scatter_of "vs" leakage_pair.vs frequency_pair.vs;
      leakage_pair = { leakage_pair with label = "INV FO3 leakage" };
      frequency_pair = { frequency_pair with label = "INV FO3 frequency" };
    }
  | _ -> assert false

let pp ppf t =
  Format.fprintf ppf
    "Fig.6: leakage vs frequency scatter, INV FO3, %d MC samples per model@\n"
    t.n;
  List.iter
    (fun s ->
      Format.fprintf ppf
        "  %s: leakage spread = %.1fx   frequency spread = %.1f%% of mean@\n"
        s.label s.leakage_spread s.freq_spread_pct)
    [ t.golden; t.vs ];
  Mc_compare.pp_pair ppf t.leakage_pair;
  Mc_compare.pp_pair ppf t.frequency_pair

type per_vdd = {
  vdd : float;
  mc_delays : float array;
  ssta_mean : float;
  ssta_sigma : float;
  mc_q999 : float;
  ssta_q999 : float;
  tail_underestimate_pct : float;
  stage_skew : float;
}

type t = { stages : int; n : int; results : per_vdd list }

(* Rare extreme-mismatch samples fail to switch near threshold; the runtime
   captures them and enforces the same 20 % failure budget as Mc_compare. *)
let collect ?jobs ~label ~n ~rng ~measure () =
  let r = Vstat_runtime.Runtime.map_rng_samples ?jobs ~rng ~n ~f:measure () in
  Vstat_runtime.Runtime.check_budget ~label:("Exp_ssta:" ^ label)
    ~max_failure_frac:0.2 r;
  Vstat_runtime.Runtime.values r

let run ?jobs ?(vdds = [ 0.9; 0.55 ]) ?(stages = 8) ?(n = 300) ?(seed = 59)
    (p : Vstat_core.Pipeline.t) =
  let results =
    List.map
      (fun vdd ->
        let rng = Vstat_util.Rng.create ~seed in
        (* Transistor-level path Monte Carlo. *)
        let mc_delays =
          collect ?jobs ~label:"path-mc" ~n ~rng
            ~measure:(fun sample_rng ->
              let tech =
                Vstat_core.Techs.stochastic_vs p ~rng:sample_rng ~vdd
              in
              Vstat_cells.Chain.measure (Vstat_cells.Chain.sample ~stages tech))
            ()
        in
        (* Per-stage characterization: FO1 inverter delays. *)
        let stage_delays =
          collect ?jobs ~label:"stage-mc" ~n ~rng
            ~measure:(fun sample_rng ->
              let tech =
                Vstat_core.Techs.stochastic_vs p ~rng:sample_rng ~vdd
              in
              let s =
                Vstat_cells.Fanout.(
                  sample Inv tech ~wp_nm:600.0 ~wn_nm:300.0 ~fanout:1)
              in
              (Vstat_cells.Fanout.measure s).tpd)
            ()
        in
        let stage_mean = Vstat_stats.Descriptive.mean stage_delays in
        let stage_sigma = Vstat_stats.Descriptive.std stage_delays in
        let k = Float.of_int stages in
        let ssta_mean = k *. stage_mean in
        let ssta_sigma = sqrt k *. stage_sigma in
        let z999 = Vstat_util.Special.normal_quantile 0.999 in
        let ssta_q999 = ssta_mean +. (z999 *. ssta_sigma) in
        let mc_q999 = Vstat_stats.Descriptive.quantile mc_delays 0.999 in
        (* The SSTA model is built from FO1 stages while the path's inner
           stages see FO1-equivalent loading, so the means line up to first
           order; the tail comparison is normalized to remove any residual
           mean offset. *)
        let mc_mean = Vstat_stats.Descriptive.mean mc_delays in
        let ssta_q999_aligned = ssta_q999 *. (mc_mean /. ssta_mean) in
        {
          vdd;
          mc_delays;
          ssta_mean;
          ssta_sigma;
          mc_q999;
          ssta_q999 = ssta_q999_aligned;
          tail_underestimate_pct =
            100.0 *. (mc_q999 -. ssta_q999_aligned) /. mc_q999;
          stage_skew = Vstat_stats.Descriptive.skewness stage_delays;
        })
      vdds
  in
  { stages; n; results }

let pp ppf t =
  Format.fprintf ppf
    "Extension: Gaussian SSTA vs transistor-level MC, %d-stage path, n=%d@\n"
    t.stages t.n;
  Vstat_util.Floatx.pp_table ppf
    ~header:
      [
        "Vdd"; "MC mean (ps)"; "MC q99.9 (ps)"; "SSTA q99.9 (ps)";
        "tail underest %"; "stage skew";
      ]
    ~rows:
      (List.map
         (fun r ->
           [
             Printf.sprintf "%.2f" r.vdd;
             Printf.sprintf "%.1f"
               (1e12 *. Vstat_stats.Descriptive.mean r.mc_delays);
             Printf.sprintf "%.1f" (1e12 *. r.mc_q999);
             Printf.sprintf "%.1f" (1e12 *. r.ssta_q999);
             Printf.sprintf "%+.1f" r.tail_underestimate_pct;
             Printf.sprintf "%+.2f" r.stage_skew;
           ])
         t.results);
  Format.fprintf ppf
    "(positive tail underestimation at low Vdd = Gaussian SSTA is optimistic@\n\
    \ about the slow corner, the paper's Sec. IV-B warning)@\n"

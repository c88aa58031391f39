type size = { name : string; wp_nm : float; wn_nm : float }

let paper_sizes =
  [
    { name = "1x (P/N=300/150)"; wp_nm = 300.0; wn_nm = 150.0 };
    { name = "2x (P/N=600/300)"; wp_nm = 600.0; wn_nm = 300.0 };
    { name = "4x (P/N=1200/600)"; wp_nm = 1200.0; wn_nm = 600.0 };
  ]

type t = { n : int; vdd : float; results : (size * Mc_compare.pair) list }

let run ?(sizes = paper_sizes) ?(n = 400) ?(seed = 23) ?vdd
    (p : Vstat_core.Pipeline.t) =
  let vdd = match vdd with Some v -> v | None -> p.vdd in
  let results =
    List.map
      (fun size ->
        let measure tech =
          let s =
            Vstat_cells.Fanout.(
              sample Inv tech ~wp_nm:size.wp_nm ~wn_nm:size.wn_nm ~fanout:3)
          in
          (Vstat_cells.Fanout.measure s).tpd
        in
        let pair =
          Mc_compare.run p ~label:("INV FO3 delay " ^ size.name) ~vdd ~n ~seed
            ~measure
        in
        (size, pair))
      sizes
  in
  { n; vdd; results }

let pp ppf t =
  Format.fprintf ppf
    "Fig.5: INV FO3 delay distributions, %d MC samples per model, Vdd=%.2fV@\n"
    t.n t.vdd;
  List.iter (fun (_, pair) -> Mc_compare.pp_pair ppf pair) t.results

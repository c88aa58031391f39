(* Cross-commit golden digests: every other bit-identity check compares
   two runs of one build, so a refactor that shifts the numerics passes
   them as long as the tolerance tests pass.  This executable recomputes
   a handful of paper workloads at a small fixed n and seed and compares
   them against test/golden_digests, which was recorded on an earlier
   commit: per workload, the hex bits of the sample mean and standard
   deviation plus a CRC-32 of the per-sample values (8 little-endian
   bytes each, index order).  It prints the computed lines either way, so
   a deliberate numerics change regenerates the file from its output; the
   file may only change together with a CHANGES.md entry that explains
   why the numbers moved.

   Usage: golden.exe DIGEST_FILE *)

module Rng = Vstat_util.Rng
module P = Vstat_core.Pipeline

let bits x = Printf.sprintf "%016Lx" (Int64.bits_of_float x)

let digest_line name ~n ~seed (v : float array) =
  let k = Array.length v in
  let mean = Array.fold_left ( +. ) 0.0 v /. Float.of_int k in
  let ss = Array.fold_left (fun a x -> a +. ((x -. mean) *. (x -. mean))) 0.0 v in
  let std = sqrt (ss /. Float.of_int (Int.max 1 (k - 1))) in
  let b = Bytes.create (8 * k) in
  Array.iteri (fun i x -> Bytes.set_int64_le b (8 * i) (Int64.bits_of_float x)) v;
  Printf.sprintf "%s n=%d seed=%d values=%d mean=%s std=%s crc32=%08x" name n
    seed k (bits mean) (bits std)
    (Vstat_util.Crc32.digest (Bytes.unsafe_to_string b))

(* Serial per-sample loop over counter-indexed substreams. *)
let per_sample ~n ~seed f =
  Array.init n (fun i -> f (Rng.substream ~seed ~index:i))

let workloads (p : P.t) =
  let vdd = p.P.vdd in
  let chain_n = 6 and chain_seed = 11 in
  let chain =
    per_sample ~n:chain_n ~seed:chain_seed (fun rng ->
        let tech = Vstat_core.Techs.stochastic_vs p ~rng ~vdd in
        Vstat_cells.Chain.measure ~steps:400
          (Vstat_cells.Chain.sample ~stages:48 tech))
  in
  let fig5_n = 8 and fig5_seed = 23 in
  let fig5 =
    Vstat_experiments.Exp_fig5.run
      ~sizes:[ List.nth Vstat_experiments.Exp_fig5.paper_sizes 1 ]
      ~n:fig5_n ~seed:fig5_seed p
  in
  let pair = snd (List.hd fig5.Vstat_experiments.Exp_fig5.results) in
  let snm_n = 8 and snm_seed = 31 in
  let snm =
    per_sample ~n:snm_n ~seed:snm_seed (fun rng ->
        let tech = Vstat_core.Techs.stochastic_vs p ~rng ~vdd in
        Vstat_cells.Sram6t.snm ~points:41 (Vstat_cells.Sram6t.sample tech)
          ~mode:Vstat_cells.Sram6t.Read)
  in
  let is_n = 60 and is_seed = 5 in
  let is =
    Vstat_experiments.Exp_sram_yield.estimate_is ~jobs:2 ~n:is_n ~pilot_n:40
      ~seed:is_seed p
  in
  let fo3_n = 8 in
  let fo3 name ~seed gate ~wp_nm =
    let r =
      per_sample ~n:fo3_n ~seed (fun rng ->
          let tech = Vstat_core.Techs.stochastic_vs p ~rng ~vdd in
          Vstat_cells.Fanout.(
            measure (sample gate tech ~wp_nm ~wn_nm:300.0 ~fanout:3)))
    in
    [
      digest_line (name ^ "_tpd") ~n:fo3_n ~seed
        (Array.map (fun r -> r.Vstat_cells.Fanout.tpd) r);
      digest_line (name ^ "_leakage") ~n:fo3_n ~seed
        (Array.map (fun r -> r.Vstat_cells.Fanout.leakage) r);
    ]
  in
  let inv = fo3 "inv_fo3" ~seed:41 Vstat_cells.Fanout.Inv ~wp_nm:600.0 in
  let nand2 = fo3 "nand2_fo3" ~seed:43 Vstat_cells.Fanout.Nand2 ~wp_nm:300.0 in
  let nor2 = fo3 "nor2_fo3" ~seed:47 Vstat_cells.Fanout.Nor2 ~wp_nm:1200.0 in
  [
    digest_line "chain48_delay" ~n:chain_n ~seed:chain_seed chain;
    digest_line "fig5_inv_fo3_vs" ~n:fig5_n ~seed:fig5_seed
      pair.Vstat_experiments.Mc_compare.vs;
    digest_line "fig5_inv_fo3_golden" ~n:fig5_n ~seed:fig5_seed
      pair.Vstat_experiments.Mc_compare.golden;
    digest_line "sram_read_snm" ~n:snm_n ~seed:snm_seed snm;
    digest_line "sram_is_metrics" ~n:is_n ~seed:is_seed
      is.Vstat_rare.Importance.metrics;
    digest_line "sram_is_p_hat" ~n:is_n ~seed:is_seed
      [| is.Vstat_rare.Importance.p_hat |];
  ]
  @ inv @ nand2 @ nor2

let read_lines path =
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> l <> "" && l.[0] <> '#')

let () =
  let path =
    match Sys.argv with
    | [| _; path |] -> path
    | _ ->
      prerr_endline "usage: golden.exe DIGEST_FILE";
      exit 2
  in
  let p = P.build ~jobs:2 ~seed:42 ~mc_per_geometry:300 () in
  let got = workloads p in
  List.iter print_endline got;
  let want = read_lines path in
  if List.equal String.equal got want then
    Printf.printf "golden digests OK: %d workloads match %s\n"
      (List.length got) path
  else begin
    Printf.eprintf "golden digests differ from %s\n" path;
    List.iter (Printf.eprintf "  expected: %s\n") want;
    exit 1
  end

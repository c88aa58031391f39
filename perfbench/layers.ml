(* Fixed-input probes of single layers, run once in every traced pass:
   device evaluation over a bias grid, one sparse and one dense LU
   factor+solve taken from bench-built circuits, and a journal write. *)

open Common
module DM = Vstat_device.Device_model
module E = Vstat_circuit.Engine
module N = Vstat_circuit.Netlist
module W = Vstat_circuit.Waveform

(* Median over [rounds] of the time of [reps] calls, per call. *)
let ns_per_call ?(rounds = 9) ~reps f =
  median
    (Array.init rounds (fun _ ->
         let t0 = now_ns () in
         for _ = 1 to reps do
           f ()
         done;
         ns_between t0 (now_ns ()) /. Float.of_int reps))

(* --- device ------------------------------------------------------------------

   The engine's call, eval_derivs into a reused buffer, over 10 gate x 4
   drain biases; the VS/BSIM time ratio is the paper's Table IV ratio. *)

let grid_points = 40

let device_probe label (d : DM.t) =
  let buf = DM.make_derivs () in
  let call =
    match d.eval_derivs with
    | Some f -> fun ~vg ~vd -> f ~vg ~vd ~vs:0.0 ~vb:0.0 buf
    | None -> fun ~vg ~vd -> ignore (d.eval ~vg ~vd ~vs:0.0 ~vb:0.0)
  in
  let sweep () =
    for i = 0 to 9 do
      for j = 0 to 3 do
        call ~vg:(0.1 *. Float.of_int i) ~vd:(0.3 *. Float.of_int j)
      done
    done
  in
  let reps = 200 in
  let words () =
    let w0 = Gc.minor_words () in
    for _ = 1 to reps do
      sweep ()
    done;
    (Gc.minor_words () -. w0) /. Float.of_int (reps * grid_points)
  in
  let w1 = words () in
  let w2 = words () in
  check ("device-probe:exact-count:" ^ label) (w1 = w2) (fun () ->
      Printf.sprintf "%.3f then %.3f words per eval" w1 w2);
  [
    m (Printf.sprintf "device.%s.eval_ns" label) "ns"
      (ns_per_call ~reps sweep /. Float.of_int grid_points);
    m (Printf.sprintf "device.%s.minor_words_per_eval" label) "words" w1;
  ]

(* --- linalg ------------------------------------------------------------------ *)

(* G + C/dt at the operating point: the matrix a transient Newton
   iteration factors. *)
let jacobian eng ~dt =
  let g, c = E.linearize eng (E.dc eng) in
  let n = Vstat_linalg.Matrix.rows g in
  Vstat_linalg.Matrix.init ~rows:n ~cols:n ~f:(fun i j ->
      Vstat_linalg.Matrix.get g i j +. (Vstat_linalg.Matrix.get c i j /. dt))

let rhs n = Array.init n (fun i -> 1.0 +. (0.01 *. Float.of_int i))

(* Sparse: the chain-48 pattern of chain48-mc, nominal devices. *)
let sparse_probe (p : Vstat_core.Pipeline.t) =
  let module S = Vstat_linalg.Sparse in
  let s =
    Vstat_cells.Chain.sample ~stages:Mc.stages
      (Vstat_core.Techs.nominal_vs p ~vdd:p.vdd)
  in
  let net, _, _, window = Mc.chain_netlist s in
  let eng = E.compile ~backend:E.Sparse net in
  let a = jacobian eng ~dt:(window /. Float.of_int Mc.steps) in
  let n = Vstat_linalg.Matrix.rows a in
  let entries = ref [] in
  for i = n - 1 downto 0 do
    for j = n - 1 downto 0 do
      if Vstat_linalg.Matrix.get a i j <> 0.0 then entries := (i, j) :: !entries
    done
  done;
  let entries = Array.of_list !entries in
  let num = S.create_numeric (S.analyze ~n ~entries) in
  let template = Array.make (S.nnz (S.symbolic_of num)) 0.0 in
  Array.iter
    (fun (i, j) ->
      let k = S.slot (S.symbolic_of num) ~row:i ~col:j in
      template.(k) <- template.(k) +. Vstat_linalg.Matrix.get a i j)
    entries;
  let b = rhs n and x = Array.make n 0.0 in
  let values = S.values num in
  let run () =
    Array.blit template 0 values 0 (Array.length template);
    S.factor num;
    Array.blit b 0 x 0 n;
    S.solve_in_place num x
  in
  m "linalg.sparse_factor_solve_ns" "ns" (ns_per_call ~reps:2000 run)

(* Dense: the SRAM half-cell of Sram6t.vtc (9 unknowns, dense backend). *)
let dense_probe (p : Vstat_core.Pipeline.t) =
  let module L = Vstat_linalg.Lu in
  let module Mx = Vstat_linalg.Matrix in
  let tech = Vstat_core.Techs.nominal_vs p ~vdd:Mc.sram_vdd in
  let cell = Vstat_cells.Sram6t.sample tech in
  let vdd = Mc.sram_vdd in
  let net = N.create () in
  let gnd = N.ground net in
  let nvdd = N.node net "vdd" and nin = N.node net "in" in
  let nout = N.node net "out" and nbl = N.node net "bl" in
  let nwl = N.node net "wl" in
  N.vsource net "vvdd" ~plus:nvdd ~minus:gnd ~wave:(W.Dc vdd);
  N.vsource net "vin" ~plus:nin ~minus:gnd ~wave:(W.Dc (vdd /. 2.0));
  N.vsource net "vbl" ~plus:nbl ~minus:gnd ~wave:(W.Dc vdd);
  N.vsource net "vwl" ~plus:nwl ~minus:gnd ~wave:(W.Dc vdd);
  let h = cell.Vstat_cells.Sram6t.left in
  N.mosfet net "mpu" ~d:nout ~g:nin ~s:nvdd ~b:nvdd ~dev:h.pullup;
  N.mosfet net "mpd" ~d:nout ~g:nin ~s:gnd ~b:gnd ~dev:h.pulldown;
  N.mosfet net "macc" ~d:nbl ~g:nwl ~s:nout ~b:gnd ~dev:h.access;
  let eng = E.compile net in
  let a = jacobian eng ~dt:1e-12 in
  let n = Mx.rows a in
  let work = Mx.copy a and pivots = Array.make n 0 in
  let b = rhs n and x = Array.make n 0.0 in
  let src = Mx.buffer a and dst = Mx.buffer work in
  let run () =
    Array.blit src 0 dst 0 (Array.length src);
    ignore (L.factor_in_place work ~pivots);
    Array.blit b 0 x 0 n;
    L.solve_in_place ~lu:work ~pivots x
  in
  m "linalg.dense_factor_solve_ns" "ns" (ns_per_call ~reps:20000 run)

(* --- runtime: journal flush --------------------------------------------------

   A snapshot the size of a finished vstatd Idsat n=16 job, written with
   the write-temp, fsync, rename sequence of Journal.write. *)
let journal_probe () =
  let module J = Vstat_runtime.Journal in
  let spec =
    { Vstat_service.Protocol.kind = Idsat; n = 16; seed = 1; vdd = 0.9; retry = 2 }
  in
  let fingerprint =
    Vstat_service.Protocol.spec_canonical
      ~pipeline:(Vstat_service.Service.pipeline_signature
                   Vstat_service.Service.default_config)
      spec
  in
  let payload i =
    let b = Bytes.create 8 in
    Bytes.set_int64_le b 0 (Int64.bits_of_float (1e-4 +. Float.of_int i));
    Bytes.to_string b
  in
  let snap =
    {
      J.identity =
        {
          label = Vstat_service.Protocol.job_id fingerprint;
          fingerprint;
          n = 16;
          base_seed = 12345L;
          max_attempts = 2;
        };
      entries = Array.init 16 (fun index -> { J.index; attempts = 1; payload = payload index });
      moments = [| { J.m_count = 16; m_mean = 1e-4; m_m2 = 1e-10; m_lo = 0.0; m_hi = 1.0 } |];
    }
  in
  ensure_work_dir ();
  let path = Filename.concat work_dir "journal-probe.ckpt" in
  let t = ns_per_call ~rounds:15 ~reps:2 (fun () -> J.write ~path snap) in
  Sys.remove path;
  m "runtime.journal_write_ms" "ms" (t *. 1e-6)

let all (p : Vstat_core.Pipeline.t) =
  device_probe "vs"
    (Vstat_core.Vs_statistical.nominal_device p.vs_nmos ~w_nm:600.0 ~l_nm:40.0)
  @ device_probe "bsim"
      (Vstat_core.Bsim_statistical.nominal_device p.golden_nmos ~w_nm:600.0
         ~l_nm:40.0)
  @ [ sparse_probe p; dense_probe p; journal_probe () ]

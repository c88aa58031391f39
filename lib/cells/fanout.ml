module N = Vstat_circuit.Netlist
module E = Vstat_circuit.Engine
module W = Vstat_circuit.Waveform
module M = Vstat_circuit.Measure

type _ gate =
  | Inv : Gates.inverter_devices gate
  | Nand2 : Gates.gate2_devices gate
  | Nor2 : Gates.gate2_devices gate

type 'd sample = {
  gate : 'd gate;
  vdd : float;
  driver : 'd;
  dut : 'd;
  loads : 'd array;
}

type result = { tphl : float; tplh : float; tpd : float; leakage : float }

let name : type d. d gate -> string = function
  | Inv -> "inverter"
  | Nand2 -> "nand2"
  | Nor2 -> "nor2"

let sample_devices :
    type d. d gate -> Celltech.t -> wp_nm:float -> wn_nm:float -> d =
 fun gate tech ~wp_nm ~wn_nm ->
  match gate with
  | Inv -> Gates.sample_inverter tech ~wp_nm ~wn_nm
  | Nand2 -> Gates.sample_gate2 tech ~wp_nm ~wn_nm
  | Nor2 -> Gates.sample_gate2 tech ~wp_nm ~wn_nm

(* Input B is tied to its non-controlling level: Vdd for a NAND2, ground
   for a NOR2. *)
let add_gate :
    type d.
    d gate -> N.t -> name:string -> devices:d -> input:N.node ->
    output:N.node -> vdd_node:N.node -> gnd:N.node -> unit =
 fun gate net ~name ~devices ~input ~output ~vdd_node ~gnd ->
  match gate with
  | Inv -> Gates.add_inverter net ~name ~devices ~input ~output ~vdd_node ~gnd
  | Nand2 ->
    Gates.add_nand2 net ~name ~devices ~input_a:input ~input_b:vdd_node ~output
      ~vdd_node ~gnd
  | Nor2 ->
    Gates.add_nor2 net ~name ~devices ~input_a:input ~input_b:gnd ~output
      ~vdd_node ~gnd

let sample gate (tech : Celltech.t) ~wp_nm ~wn_nm ~fanout =
  if fanout < 1 then
    invalid_arg "Fanout.sample: fanout >= 1" [@vstat.allow "exn-discipline"];
  (* Draw order: loads, then the DUT, then the driver.  Seeded results
     depend on it; the golden digests pin it. *)
  let draw _ = sample_devices gate tech ~wp_nm ~wn_nm in
  let loads = Array.init fanout draw in
  let dut = draw () in
  let driver = draw () in
  { gate; vdd = tech.vdd; driver; dut; loads }

let build s ~window =
  let net = N.create () in
  let gnd = N.ground net in
  let nvdd = N.node net "vdd" in
  let nin = N.node net "in" in
  let na = N.node net "a" in
  let ny = N.node net "y" in
  N.vsource net "vvdd" ~plus:nvdd ~minus:gnd ~wave:(W.Dc s.vdd);
  let edge = 0.02 *. window in
  let t_rise = 0.08 *. window in
  let t_fall = 0.54 *. window in
  N.vsource net "vin" ~plus:nin ~minus:gnd
    ~wave:
      (W.pwl
         [|
           (t_rise, 0.0); (t_rise +. edge, s.vdd);
           (t_fall, s.vdd); (t_fall +. edge, 0.0);
         |]);
  let add = add_gate s.gate net ~vdd_node:nvdd ~gnd in
  add ~name:"xdrv" ~devices:s.driver ~input:nin ~output:na;
  add ~name:"xdut" ~devices:s.dut ~input:na ~output:ny;
  Array.iteri
    (fun i devices ->
      let out = N.node net (Printf.sprintf "l%d" i) in
      add ~name:(Printf.sprintf "xload%d" i) ~devices ~input:ny ~output:out)
    s.loads;
  (net, na, ny)

let measure ?window ?(steps = 400) s =
  let window =
    match window with
    | Some w -> w
    | None -> Inverter.default_window ~vdd:s.vdd
  in
  let net, na, ny = build s ~window in
  let eng = E.compile net in
  let op = E.dc eng in
  let leakage = Float.abs (E.source_current eng op "vvdd") in
  let trace = E.transient eng ~tstop:window ~dt:(window /. Float.of_int steps) in
  let times = trace.E.times in
  let wa = E.node_wave eng trace na in
  let wy = E.node_wave eng trace ny in
  let v50 = s.vdd /. 2.0 in
  (* Input pulse rises then falls; node a falls then rises; y mirrors in. *)
  let tplh =
    M.propagation_delay ~times ~input:wa ~output:wy ~v50 ~input_rising:false
      ~output_rising:true
  in
  let tphl =
    M.propagation_delay ~times ~input:wa ~output:wy ~v50 ~input_rising:true
      ~output_rising:false
  in
  match (tplh, tphl) with
  | Some tplh, Some tphl ->
    { tphl; tplh; tpd = 0.5 *. (tphl +. tplh); leakage }
  | _ ->
    Vstat_circuit.Diag.fail ~analysis:("measure:" ^ name s.gate)
      Measure_no_crossing "output never crossed 50%% (window %.3e s too short)"
      window

let measure_nominal gate tech ~wp_nm ~wn_nm ~fanout =
  measure (sample gate tech ~wp_nm ~wn_nm ~fanout)

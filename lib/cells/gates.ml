module N = Vstat_circuit.Netlist

type inverter_devices = {
  pmos : Vstat_device.Device_model.t;
  nmos : Vstat_device.Device_model.t;
}

type gate2_devices = {
  pmos_a : Vstat_device.Device_model.t;
  pmos_b : Vstat_device.Device_model.t;
  nmos_a : Vstat_device.Device_model.t;
  nmos_b : Vstat_device.Device_model.t;
}

(* The draw order (NMOS before PMOS, B before A) is part of every seeded
   result; the golden digests pin it. *)
let sample_inverter (tech : Celltech.t) ~wp_nm ~wn_nm =
  let nmos = tech.nmos ~w_nm:wn_nm in
  let pmos = tech.pmos ~w_nm:wp_nm in
  { pmos; nmos }

let sample_gate2 (tech : Celltech.t) ~wp_nm ~wn_nm =
  let nmos_b = tech.nmos ~w_nm:wn_nm in
  let nmos_a = tech.nmos ~w_nm:wn_nm in
  let pmos_b = tech.pmos ~w_nm:wp_nm in
  let pmos_a = tech.pmos ~w_nm:wp_nm in
  { pmos_a; pmos_b; nmos_a; nmos_b }

let add_inverter net ~name ~devices ~input ~output ~vdd_node ~gnd =
  N.mosfet net (name ^ ".mp") ~d:output ~g:input ~s:vdd_node ~b:vdd_node
    ~dev:devices.pmos;
  N.mosfet net (name ^ ".mn") ~d:output ~g:input ~s:gnd ~b:gnd
    ~dev:devices.nmos

let add_nand2 net ~name ~devices ~input_a ~input_b ~output ~vdd_node ~gnd =
  let mid = N.node net (name ^ ".mid") in
  N.mosfet net (name ^ ".mpa") ~d:output ~g:input_a ~s:vdd_node ~b:vdd_node
    ~dev:devices.pmos_a;
  N.mosfet net (name ^ ".mpb") ~d:output ~g:input_b ~s:vdd_node ~b:vdd_node
    ~dev:devices.pmos_b;
  N.mosfet net (name ^ ".mna") ~d:output ~g:input_a ~s:mid ~b:gnd
    ~dev:devices.nmos_a;
  N.mosfet net (name ^ ".mnb") ~d:mid ~g:input_b ~s:gnd ~b:gnd
    ~dev:devices.nmos_b

let add_nor2 net ~name ~devices ~input_a ~input_b ~output ~vdd_node ~gnd =
  let mid = N.node net (name ^ ".mid") in
  N.mosfet net (name ^ ".mpb") ~d:mid ~g:input_b ~s:vdd_node ~b:vdd_node
    ~dev:devices.pmos_b;
  N.mosfet net (name ^ ".mpa") ~d:output ~g:input_a ~s:mid ~b:vdd_node
    ~dev:devices.pmos_a;
  N.mosfet net (name ^ ".mna") ~d:output ~g:input_a ~s:gnd ~b:gnd
    ~dev:devices.nmos_a;
  N.mosfet net (name ^ ".mnb") ~d:output ~g:input_b ~s:gnd ~b:gnd
    ~dev:devices.nmos_b

let add_nmos_pass net ~name ~dev ~a ~b ~gate ~gnd =
  N.mosfet net name ~d:a ~g:gate ~s:b ~b:gnd ~dev

(** Netlist fragments for static CMOS gates, built from explicit device
    instances (so statistical samples can be threaded through). *)

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
(** The four transistors of a two-input gate (NAND2 or NOR2).  The [_a]
    devices take input A, which sits nearest the output in the series
    stack (the NMOS stack of a NAND2, the PMOS stack of a NOR2). *)

val sample_inverter : Celltech.t -> wp_nm:float -> wn_nm:float -> inverter_devices
(** Draw a fresh inverter's device pair from the technology. *)

val sample_gate2 : Celltech.t -> wp_nm:float -> wn_nm:float -> gate2_devices
(** Draw a fresh two-input gate's devices: every PMOS is [wp_nm] wide and
    every NMOS [wn_nm]. *)

val add_inverter :
  Vstat_circuit.Netlist.t ->
  name:string ->
  devices:inverter_devices ->
  input:Vstat_circuit.Netlist.node ->
  output:Vstat_circuit.Netlist.node ->
  vdd_node:Vstat_circuit.Netlist.node ->
  gnd:Vstat_circuit.Netlist.node ->
  unit

val add_nand2 :
  Vstat_circuit.Netlist.t ->
  name:string ->
  devices:gate2_devices ->
  input_a:Vstat_circuit.Netlist.node ->
  input_b:Vstat_circuit.Netlist.node ->
  output:Vstat_circuit.Netlist.node ->
  vdd_node:Vstat_circuit.Netlist.node ->
  gnd:Vstat_circuit.Netlist.node ->
  unit
(** Input A drives the NMOS nearest the output (worst-case switching input). *)

val add_nor2 :
  Vstat_circuit.Netlist.t ->
  name:string ->
  devices:gate2_devices ->
  input_a:Vstat_circuit.Netlist.node ->
  input_b:Vstat_circuit.Netlist.node ->
  output:Vstat_circuit.Netlist.node ->
  vdd_node:Vstat_circuit.Netlist.node ->
  gnd:Vstat_circuit.Netlist.node ->
  unit
(** Input A drives the PMOS nearest the output (worst-case switching input). *)

val add_nmos_pass :
  Vstat_circuit.Netlist.t ->
  name:string ->
  dev:Vstat_device.Device_model.t ->
  a:Vstat_circuit.Netlist.node ->
  b:Vstat_circuit.Netlist.node ->
  gate:Vstat_circuit.Netlist.node ->
  gnd:Vstat_circuit.Netlist.node ->
  unit
(** NMOS pass transistor between [a] and [b] (bulk to ground). *)

(** Fanout-of-N delay/leakage harness for the standard cells: INV FO-N
    (paper Figs. 5 and 6) and NAND2 FO-N (Fig. 7, Table IV), plus NOR2.

    Topology: an ideal pulse drives a same-sized *driver* gate that shapes
    a realistic edge at node [a]; the DUT drives node [y], which is loaded
    by [fanout] identical gates (their gate capacitance is the load, as in
    a standard-cell FO-N characterization).  Every gate switches on input
    A (the series-stack transistor nearest the output, the worst case)
    while input B is held at its non-controlling level: Vdd for a NAND2,
    ground for a NOR2. *)

(** The gate under test, indexed by the device set of one instance. *)
type _ gate =
  | Inv : Gates.inverter_devices gate
  | Nand2 : Gates.gate2_devices gate
  | Nor2 : Gates.gate2_devices gate
      (** NOR pull-ups stack in series, so its [wp_nm] is typically ~2x an
          inverter's PMOS width. *)

type 'd sample = {
  gate : 'd gate;
  vdd : float;
  driver : 'd;
  dut : 'd;
  loads : 'd array;
}
(** All transistor instances of one Monte Carlo draw. *)

type result = {
  tphl : float;    (** output falling propagation delay, s *)
  tplh : float;    (** output rising propagation delay, s *)
  tpd : float;     (** (tphl + tplh) / 2 *)
  leakage : float; (** static supply current with input A low, A *)
}

val sample :
  'd gate -> Celltech.t -> wp_nm:float -> wn_nm:float -> fanout:int ->
  'd sample
(** Draw all devices for one harness instance: every PMOS is [wp_nm] wide
    and every NMOS [wn_nm].
    @raise Invalid_argument if [fanout < 1]. *)

val measure : ?window:float -> ?steps:int -> 'd sample -> result
(** Build the netlist, run one transient with a rise+fall input pulse over
    [window] (default {!Inverter.default_window}) in [steps] steps, and
    one DC solve for leakage.
    @raise Vstat_circuit.Diag.Solver_error ([Measure_no_crossing]) if a 50 % crossing is never observed (window too short). *)

val measure_nominal :
  'd gate -> Celltech.t -> wp_nm:float -> wn_nm:float -> fanout:int -> result
[@@vstat.allow "dead-export"] (* test seam: test_cells' nominal FO-N *)
(** Convenience: one deterministic measurement on a nominal technology. *)

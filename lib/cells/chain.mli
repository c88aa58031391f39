(** Inverter-chain timing path: the minimal SSTA benchmark.

    A chain of N identical inverters driven by a shaped edge; the path
    delay is the 50 %-to-50 % delay from the first stage's input to the
    last stage's output.  Each stage carries independent within-die
    mismatch, so the path delay is a sum of per-stage random delays —
    exactly the object statistical static timing analysis models. *)

type sample = {
  vdd : float;
  stages : Gates.inverter_devices array;
  driver : Gates.inverter_devices;
}

val sample :
  ?stages:int -> ?wp_nm:float -> ?wn_nm:float -> Celltech.t -> sample
(** Default: 8 stages of P/N = 600/300 nm. *)

val measure :
  ?window:float ->
  ?steps:int ->
  ?backend:Vstat_circuit.Engine.backend ->
  sample ->
  float
(** Path delay in seconds (input edge at the first stage's input to the
    final output's matching-polarity crossing).  [backend] picks the
    engine's linear solver (default {!Vstat_circuit.Engine.Auto}).
    @raise Vstat_circuit.Diag.Solver_error ([Measure_no_crossing]) if the edge never propagates within the window. *)

(** Inverter-delay time scale shared by the gate harnesses ({!Fanout},
    {!Chain}). *)

val default_window : vdd:float -> float
(** Simulation window for one FO-N gate transition; grows as the supply
    drops (low-Vdd delays are an order of magnitude longer). *)

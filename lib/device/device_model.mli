(** First-class MOSFET compact-model instances.

    A [t] is a fully-instantiated four-terminal transistor: geometry and
    process parameters are already bound, so the circuit simulator only sees
    node voltages.  Polarity handling (PMOS as a mirrored NMOS) and
    source–drain symmetry (swap when the applied Vds is negative) are
    implemented here once, so concrete models ({!Vs_model}, {!Bsim4lite})
    only provide equations for the canonical NMOS, Vds >= 0 quadrant. *)

type polarity = Nmos | Pmos

type terminal_state = {
  id : float;  (** drain-to-source channel current, A (into drain terminal) *)
  qg : float;  (** gate terminal charge, C *)
  qd : float;  (** drain terminal charge, C *)
  qs : float;  (** source terminal charge, C *)
  qb : float;  (** bulk terminal charge, C *)
}

type canonical_eval = vgs:float -> vds:float -> vbs:float -> terminal_state
(** Model equations in the canonical quadrant.  Caller guarantees
    [vds >= 0]; values follow NMOS sign conventions (id >= 0 for normal
    operation, charges in natural NMOS polarity). *)

type canonical_kernel = float array -> unit
(** Canonical equations evaluated together with their analytic bias
    derivatives, in place on a caller-owned buffer of 20 floats, so an
    evaluation allocates nothing.  Layout:
    - in: [k.(0)], [k.(1)], [k.(2)] = vgs, vds, vbs (canonical quadrant,
      vds >= 0), read before anything is written;
    - out: [k.(0..4)] = id, qg, qd, qs, qb, the model's
      {!canonical_eval} values (up to rounding: the two are separate
      formula sequences);
    - out: [k.(5 + 3*o + j)] = partial of output [o] (0..4, order as
      above) w.r.t. bias [j] (0 = vgs, 1 = vds, 2 = vbs). *)

type derivs = {
  v : float array;
      (** length 5, terminal convention: id (drain-to-source channel
          current, into the drain), qg, qd, qs, qb *)
  did : float array;
      (** length 4: dId/dV at terminals (g, d, s, b) — gm, gds, gms, gmb *)
  dq : float array;
      (** length 16, row-major transcapacitance block: row = charge terminal
          (g, d, s, b), column = voltage terminal (g, d, s, b) *)
  kbuf : float array;
      (** length 20: the {!canonical_kernel}'s working buffer *)
}
(** Caller-provided output buffer for {!eval_derivs}: the circuit engine
    allocates one per MOSFET of a compiled system and reuses it every Newton
    iteration.
    Float arrays only — a mutable float record field would box on every
    write — so the analytic path allocates nothing beyond the boxed float
    arguments of the closure call itself. *)

val make_derivs : unit -> derivs
(** Fresh zeroed buffer. *)

type eval_derivs = vg:float -> vd:float -> vs:float -> vb:float -> derivs -> unit
(** Evaluate current, charges, conductances and transcapacitances at real
    terminal voltages, writing into the supplied buffer. *)

type t = {
  name : string;
  polarity : polarity;
  width : float;    (** electrical channel width, m *)
  length : float;   (** electrical channel length, m *)
  eval : vg:float -> vd:float -> vs:float -> vb:float -> terminal_state;
  eval_derivs : eval_derivs option;
      (** Analytic derivative path; [None] falls back to the engine's
          finite-difference Jacobian (5 evals per linearization).  Its
          outputs must depend on the terminal voltages only through
          {!canonical_key}: true of every device {!make} builds and of
          wrappers that pass the voltages through unchanged.  The
          engine's device bypass relies on it. *)
}

val make :
  name:string ->
  polarity:polarity ->
  width:float ->
  length:float ->
  ?canonical_derivs:canonical_kernel ->
  canonical:canonical_eval ->
  unit ->
  t
(** Wrap canonical equations with polarity mirroring and Vds < 0 swap.
    When [canonical_derivs] is given, the same mirroring/swap chain rule is
    applied to the kernel's analytic derivatives and exposed as
    [eval_derivs]. *)

val canonical_key : polarity -> float array -> unit
(** [canonical_key polarity key] maps terminal voltages
    [key.(0..3)] = vg, vd, vs, vb to what {!make}'s [eval_derivs] feeds
    its kernel: [key.(0..2)] = the canonical vgs, vds, vbs (polarity
    mirrored, source and drain ordered so vds >= 0) and [key.(3)] = 1.0
    when source and drain swapped, else 0.0.  Two calls with bitwise
    equal keys produce bitwise equal outputs, however their terminal
    voltages differ; the circuit engine's device bypass keys on this.
    Allocates nothing. *)

val without_derivs : t -> t
(** The same device with the analytic path stripped — forces the engine's
    finite-difference fallback (ablation benches and tests). *)

val ids : t -> vg:float -> vd:float -> vs:float -> vb:float -> float
(** Drain current only (sign follows the real terminal convention: positive
    current flows into the drain for an NMOS in normal operation). *)

val gm : ?dv:float -> t -> vg:float -> vd:float -> vs:float -> vb:float -> float
(** Transconductance dId/dVg by central finite difference. *)

val cgg : ?dv:float -> t -> vg:float -> vd:float -> vs:float -> vb:float -> float
(** Total gate capacitance dQg/dVg (F), central finite difference. *)

(* Local copies of [Float.max] and [Floatx.clamp]/[softplus] with the
   same semantics (NaN and signed zero included), plus [logistic], the
   branch-for-branch derivative of [softplus], so that the derivative
   kernel below allocates nothing: they are forced inline and
   defined in this module because classic ocamlopt boxes the float
   argument and result of every out-of-line call, and the dev profile's
   -opaque compiles forbid inlining across modules.  [delta_of_length]
   and [exp_guard] are forced inline for the same reason. *)
let[@inline always] fmax (x : float) y =
  if y > x || ((not (Float.sign_bit y)) && Float.sign_bit x) then
    if (x <> x) [@vstat.allow "float-compare"] then x else y
  else if (y <> y) [@vstat.allow "float-compare"] then y
  else x

let[@inline always] fclamp ~lo ~hi (x : float) =
  if x < lo then lo else if x > hi then hi else x

let[@inline always] softplus x =
  if x > 40.0 then x else if x < -40.0 then exp x else log1p (exp x)

let[@inline always] logistic x =
  if x > 40.0 then 1.0
  else if x < -40.0 then exp x
  else 1.0 /. (1.0 +. exp (-.x))

type dibl = { delta0 : float; l_nominal : float; l_scale : float }

(* Clamped to a physical range: DIBL beyond ~0.4 V/V means punch-through,
   outside the model's validity (also keeps extreme Monte Carlo length draws
   from producing absurd devices). *)
let[@inline always] delta_of_length d l =
  fclamp ~lo:1e-4 ~hi:0.4 (d.delta0 *. exp ((d.l_nominal -. l) /. d.l_scale))

type params = {
  w : float;
  l : float;
  cinv : float;
  vt0 : float;
  dibl : dibl;
  n0 : float;
  nd : float;
  vxo : float;
  mu : float;
  beta : float;
  alpha_q : float;
  phit : float;
  gamma_body : float;
  phib : float;
  cov : float;
  ballistic_b : float;
}

let[@inline always] delta p = delta_of_length p.dibl p.l

(* Exponentials are guarded so that wild Newton iterates (tens of volts)
   saturate smoothly instead of overflowing. *)
let[@inline always] exp_guard x = exp (fclamp ~lo:(-60.0) ~hi:60.0 x)

let canonical p ~vgs ~vds ~vbs =
  let phit = p.phit in
  let n = p.n0 +. (p.nd *. vds) in
  let vt_body =
    p.gamma_body *. (sqrt (Float.max (p.phib -. vbs) 1e-3) -. sqrt p.phib)
  in
  let vt = p.vt0 +. vt_body -. (delta p *. vds) in
  let aphit = p.alpha_q *. phit in
  (* Inversion transition function: 1 in subthreshold, 0 in strong inversion. *)
  let ff = 1.0 /. (1.0 +. exp_guard ((vgs -. (vt -. (aphit /. 2.0))) /. aphit)) in
  let qixo =
    p.cinv *. n *. phit
    *. Vstat_util.Floatx.softplus ((vgs -. (vt -. (aphit *. ff))) /. (n *. phit))
  in
  (* Saturation voltage blends from vxo.L/mu (strong inversion) to phit. *)
  let vdsats = p.vxo *. p.l /. p.mu in
  let vdsat = (vdsats *. (1.0 -. ff)) +. (phit *. ff) in
  let ratio = vds /. vdsat in
  let fsat = ratio /. ((1.0 +. (ratio ** p.beta)) ** (1.0 /. p.beta)) in
  let id = p.w *. fsat *. qixo *. p.vxo in
  (* Channel charge with a 50/50 (linear) to 60/40 (saturation) partition. *)
  let qi = p.w *. p.l *. qixo in
  let qd_frac = 0.5 -. (0.1 *. fsat) in
  let qov_s = p.cov *. p.w *. vgs in
  let qov_d = p.cov *. p.w *. (vgs -. vds) in
  {
    Device_model.id;
    qg = qi +. qov_s +. qov_d;
    qd = (-.qd_frac *. qi) -. qov_d;
    qs = (-.(1.0 -. qd_frac) *. qi) -. qov_s;
    qb = 0.0;
  }

(* Analytic bias derivatives of [canonical] as a {!Device_model}
   kernel: reads vgs/vds/vbs from [k] and writes the 5 values and 15
   partials back (layout in device_model.mli).  The formula sequence
   mirrors the value path above; suffixes _g/_d/_b are partials w.r.t.
   vgs/vds/vbs.  Validated against central finite differences in the
   device test suite.  Kept separate from [canonical], whose arithmetic
   rounds differently and feeds nominal extraction. *)
let canonical_derivs p (k : float array) =
  let vgs = k.(0) and vds = k.(1) and vbs = k.(2) in
  let phit = p.phit in
  let n = p.n0 +. (p.nd *. vds) in
  let n_d = p.nd in
  let argb = p.phib -. vbs in
  let sq = sqrt (fmax argb 1e-3) in
  let vt_body = p.gamma_body *. (sq -. sqrt p.phib) in
  (* Zero slope once the sqrt argument clamps (deep forward body bias). *)
  let vt_body_b = if argb > 1e-3 then -.p.gamma_body /. (2.0 *. sq) else 0.0 in
  let dlt = delta p in
  let vt = p.vt0 +. vt_body -. (dlt *. vds) in
  let vt_d = -.dlt and vt_b = vt_body_b in
  let aphit = p.alpha_q *. phit in
  let u = (vgs -. (vt -. (aphit /. 2.0))) /. aphit in
  let eu = exp_guard u in
  let ff = 1.0 /. (1.0 +. eu) in
  (* d/du of 1/(1+e^u); vanishes smoothly at the exp guard's saturation. *)
  let dff_du = -.ff *. ff *. eu in
  let ff_g = dff_du /. aphit in
  let ff_d = -.dff_du *. vt_d /. aphit in
  let ff_b = -.dff_du *. vt_b /. aphit in
  let numer = vgs -. (vt -. (aphit *. ff)) in
  let numer_g = 1.0 +. (aphit *. ff_g) in
  let numer_d = -.vt_d +. (aphit *. ff_d) in
  let numer_b = -.vt_b +. (aphit *. ff_b) in
  let denom = n *. phit in
  let sarg = numer /. denom in
  let sarg_g = numer_g /. denom in
  let sarg_d = (numer_d -. (sarg *. phit *. n_d)) /. denom in
  let sarg_b = numer_b /. denom in
  let sp = softplus sarg in
  let dsp = logistic sarg in
  let qixo = p.cinv *. denom *. sp in
  let qixo_g = p.cinv *. denom *. dsp *. sarg_g in
  let qixo_d = p.cinv *. ((phit *. n_d *. sp) +. (denom *. dsp *. sarg_d)) in
  let qixo_b = p.cinv *. denom *. dsp *. sarg_b in
  let vdsats = p.vxo *. p.l /. p.mu in
  let vdsat = (vdsats *. (1.0 -. ff)) +. (phit *. ff) in
  let k_vdsat = phit -. vdsats in
  let vdsat_g = k_vdsat *. ff_g in
  let vdsat_d = k_vdsat *. ff_d in
  let vdsat_b = k_vdsat *. ff_b in
  let ratio = vds /. vdsat in
  let ratio_g = -.ratio *. vdsat_g /. vdsat in
  let ratio_d = (1.0 -. (ratio *. vdsat_d)) /. vdsat in
  let ratio_b = -.ratio *. vdsat_b /. vdsat in
  let rb = ratio ** p.beta in
  let fsat = ratio /. ((1.0 +. rb) ** (1.0 /. p.beta)) in
  (* d/dr [r (1+r^b)^(-1/b)] collapses to (1+r^b)^(-(1+b)/b). *)
  let dfsat_dratio = (1.0 +. rb) ** (-.(1.0 +. p.beta) /. p.beta) in
  let fsat_g = dfsat_dratio *. ratio_g in
  let fsat_d = dfsat_dratio *. ratio_d in
  let fsat_b = dfsat_dratio *. ratio_b in
  let wv = p.w *. p.vxo in
  let id = wv *. fsat *. qixo in
  let id_g = wv *. ((fsat_g *. qixo) +. (fsat *. qixo_g)) in
  let id_d = wv *. ((fsat_d *. qixo) +. (fsat *. qixo_d)) in
  let id_b = wv *. ((fsat_b *. qixo) +. (fsat *. qixo_b)) in
  let wl = p.w *. p.l in
  let qi = wl *. qixo in
  let qi_g = wl *. qixo_g and qi_d = wl *. qixo_d and qi_b = wl *. qixo_b in
  let qd_frac = 0.5 -. (0.1 *. fsat) in
  let qdf_g = -0.1 *. fsat_g in
  let qdf_d = -0.1 *. fsat_d in
  let qdf_b = -0.1 *. fsat_b in
  let cw = p.cov *. p.w in
  let qov_s = cw *. vgs in
  let qov_d = cw *. (vgs -. vds) in
  k.(0) <- id;
  k.(1) <- qi +. qov_s +. qov_d;
  k.(2) <- (-.qd_frac *. qi) -. qov_d;
  k.(3) <- (-.(1.0 -. qd_frac) *. qi) -. qov_s;
  k.(4) <- 0.0;
  k.(5) <- id_g;
  k.(6) <- id_d;
  k.(7) <- id_b;
  k.(8) <- qi_g +. (2.0 *. cw);
  k.(9) <- qi_d -. cw;
  k.(10) <- qi_b;
  k.(11) <- -.((qdf_g *. qi) +. (qd_frac *. qi_g)) -. cw;
  k.(12) <- -.((qdf_d *. qi) +. (qd_frac *. qi_d)) +. cw;
  k.(13) <- -.((qdf_b *. qi) +. (qd_frac *. qi_b));
  k.(14) <- (qdf_g *. qi) -. ((1.0 -. qd_frac) *. qi_g) -. cw;
  k.(15) <- (qdf_d *. qi) -. ((1.0 -. qd_frac) *. qi_d);
  k.(16) <- (qdf_b *. qi) -. ((1.0 -. qd_frac) *. qi_b);
  k.(17) <- 0.0;
  k.(18) <- 0.0;
  k.(19) <- 0.0

let device ?(name = "vs") ~polarity p =
  Device_model.make ~name ~polarity ~width:p.w ~length:p.l
    ~canonical_derivs:(canonical_derivs p) ~canonical:(canonical p) ()

(* W, Leff, Cinv, VT0, delta0, n0, nd, vxo, mu, beta, gamma_body — matching
   the paper's "11 for DC" headline count (alpha_q and phit are universal
   constants; phib rides with gamma_body). *)
let dc_parameter_count = 11

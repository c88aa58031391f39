type params = {
  w : float;
  l : float;
  dl : float;
  dw : float;
  cox : float;
  vth0 : float;
  k1 : float;
  phis : float;
  dvt0 : float;
  dvt_l : float;
  eta0 : float;
  eta_l : float;
  u0 : float;
  ua : float;
  ub : float;
  vsat : float;
  n_ss : float;
  lambda : float;
  phit : float;
  cov : float;
}

(* Local copies of [Float.max] and [Floatx.clamp]/[softplus] with the
   same semantics (NaN and signed zero included), plus [logistic], the
   branch-for-branch derivative of [softplus], so that the derivative
   kernel below allocates nothing: they are forced inline and
   defined in this module because classic ocamlopt boxes the float
   argument and result of every out-of-line call, and the dev profile's
   -opaque compiles forbid inlining across modules.  [leff] and [weff] are
   forced inline for the same reason. *)
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

let[@inline always] leff p = fmax (p.l -. p.dl) 1e-9
let[@inline always] weff p = fmax (p.w -. p.dw) 1e-9

let vth p ~vds ~vbs =
  let l = leff p in
  let body =
    p.k1 *. (sqrt (Float.max (p.phis -. vbs) 1e-3) -. sqrt p.phis)
  in
  let rolloff = p.dvt0 *. exp (-.l /. p.dvt_l) in
  let dibl = p.eta0 *. exp (-.l /. p.eta_l) *. vds in
  p.vth0 +. body -. rolloff -. dibl

let canonical p ~vgs ~vds ~vbs =
  let l = leff p and w = weff p in
  let phit = p.phit in
  let vth = vth p ~vds ~vbs in
  (* Smoothed effective overdrive: exponential subthreshold, linear above. *)
  let nphit = p.n_ss *. phit in
  let vgsteff = nphit *. Vstat_util.Floatx.softplus ((vgs -. vth) /. nphit) in
  (* Vertical-field mobility degradation. *)
  let mu_eff =
    p.u0 /. (1.0 +. (p.ua *. vgsteff) +. (p.ub *. vgsteff *. vgsteff))
  in
  let esat = 2.0 *. p.vsat /. mu_eff in
  let esat_l = esat *. l in
  let vdsat = esat_l *. vgsteff /. (esat_l +. vgsteff +. 1e-12) in
  let vdsat = Float.max vdsat (2.0 *. phit) in
  (* Smooth minimum of Vds and Vdsat. *)
  let m = 4.0 in
  let vdseff = vds /. ((1.0 +. ((vds /. vdsat) ** m)) ** (1.0 /. m)) in
  (* BSIM-style bulk-charge factor keeps the current positive all the way
     into subthreshold, where Vdseff saturates at ~2 phit. *)
  let charge_factor = 1.0 -. (vdseff /. (2.0 *. (vgsteff +. (2.0 *. phit)))) in
  let id_core =
    mu_eff *. p.cox *. (w /. l)
    *. vgsteff *. vdseff *. charge_factor
    /. (1.0 +. (vdseff /. esat_l))
  in
  let id = id_core *. (1.0 +. (p.lambda *. (vds -. vdseff))) in
  (* Terminal charges: inversion charge ~ W L Cox Vgsteff, partitioned
     50/50 in triode to 60/40 in saturation; linear overlap caps. *)
  let qi = w *. l *. p.cox *. vgsteff in
  let sat_ratio = Vstat_util.Floatx.clamp ~lo:0.0 ~hi:1.0 (vdseff /. vdsat) in
  let qd_frac = 0.5 -. (0.1 *. sat_ratio) in
  let qov_s = p.cov *. w *. vgs in
  let qov_d = p.cov *. w *. (vgs -. vds) in
  {
    Device_model.id;
    qg = qi +. qov_s +. qov_d;
    qd = (-.qd_frac *. qi) -. qov_d;
    qs = (-.(1.0 -. qd_frac) *. qi) -. qov_s;
    qb = 0.0;
  }

(* The kernel's per-bias-variable chain-rule terms, top-level rather than
   local closures (which would be allocated per call and box their float
   arguments); each takes what the closure used to capture. *)
let[@inline always] cf_of ~cden ~vdseff ve_x vg_x =
  (-.ve_x /. cden) +. (vdseff *. 2.0 *. vg_x /. (cden *. cden))

let[@inline always] dv2_of ~esat_l ~esl' ~vdseff ve_x vg_x =
  (ve_x /. esat_l) -. (vdseff *. esl' *. vg_x /. (esat_l *. esat_l))

let[@inline always] id_core_of ~kk ~mu' ~mu_eff ~vgsteff ~vdseff ~cf ~dv2
    ~id_core vg_x ve_x cf_x dv2_x =
  let prod_x =
    (mu' *. vg_x *. vgsteff *. vdseff *. cf)
    +. (mu_eff *. vg_x *. vdseff *. cf)
    +. (mu_eff *. vgsteff *. ve_x *. cf)
    +. (mu_eff *. vgsteff *. vdseff *. cf_x)
  in
  (kk *. prod_x /. dv2) -. (id_core *. dv2_x /. dv2)

let[@inline always] sat_of ~raw_s ~vdsat ve_x vdsat_x =
  if raw_s < 1.0 then (ve_x -. (raw_s *. vdsat_x)) /. vdsat else 0.0

(* Analytic bias derivatives of [canonical] as a {!Device_model} kernel:
   reads vgs/vds/vbs from [k] and writes the 5 values and 15 partials back
   (layout in device_model.mli); suffixes _g/_d/_b are partials w.r.t.
   vgs/vds/vbs.  Everything upstream of Vdseff (mobility, Esat, Vdsat)
   depends on bias only through Vgsteff, so those stages carry a single
   scalar derivative w.r.t. Vgsteff that is chained out at the end.
   Validated against central finite differences in the device test
   suite. *)
let canonical_derivs p (k : float array) =
  let vgs = k.(0) and vds = k.(1) and vbs = k.(2) in
  let l = leff p and w = weff p in
  let phit = p.phit in
  let argb = p.phis -. vbs in
  let sq = sqrt (fmax argb 1e-3) in
  let body = p.k1 *. (sq -. sqrt p.phis) in
  let body_b = if argb > 1e-3 then -.p.k1 /. (2.0 *. sq) else 0.0 in
  let rolloff = p.dvt0 *. exp (-.l /. p.dvt_l) in
  let dibl_k = p.eta0 *. exp (-.l /. p.eta_l) in
  let vth = p.vth0 +. body -. rolloff -. (dibl_k *. vds) in
  let vth_d = -.dibl_k and vth_b = body_b in
  let nphit = p.n_ss *. phit in
  let sarg = (vgs -. vth) /. nphit in
  let vgsteff = nphit *. softplus sarg in
  let dsp = logistic sarg in
  let vg_g = dsp in
  let vg_d = -.dsp *. vth_d in
  let vg_b = -.dsp *. vth_b in
  let den_mu = 1.0 +. (p.ua *. vgsteff) +. (p.ub *. vgsteff *. vgsteff) in
  let mu_eff = p.u0 /. den_mu in
  (* d mu_eff / d vgsteff *)
  let mu' = -.mu_eff *. (p.ua +. (2.0 *. p.ub *. vgsteff)) /. den_mu in
  let esat_l = 2.0 *. p.vsat *. l /. mu_eff in
  let esl' = -.esat_l *. mu' /. mu_eff in
  let dv = esat_l +. vgsteff +. 1e-12 in
  let vdsat_raw = esat_l *. vgsteff /. dv in
  let vdsat_raw' =
    ((((esl' *. vgsteff) +. esat_l) *. dv) -. (esat_l *. vgsteff *. (esl' +. 1.0)))
    /. (dv *. dv)
  in
  let clamped = vdsat_raw <= 2.0 *. phit in
  let vdsat = if clamped then 2.0 *. phit else vdsat_raw in
  let vdsat' = if clamped then 0.0 else vdsat_raw' in
  let vdsat_g = vdsat' *. vg_g in
  let vdsat_d = vdsat' *. vg_d in
  let vdsat_b = vdsat' *. vg_b in
  (* m = 4: vdseff = vds (1 + r^4)^(-1/4); the direct-vds slope collapses to
     (1 + r^4)^(-5/4) and the vdsat slope to r^5 times the same factor. *)
  let r = vds /. vdsat in
  let r2 = r *. r in
  let rm = r2 *. r2 in
  let base = 1.0 +. rm in
  let vdseff = vds *. (base ** (-0.25)) in
  let a_eff = base ** (-1.25) in
  let b_eff = r *. rm *. a_eff in
  let ve_g = b_eff *. vdsat_g in
  let ve_d = a_eff +. (b_eff *. vdsat_d) in
  let ve_b = b_eff *. vdsat_b in
  let cden = 2.0 *. (vgsteff +. (2.0 *. phit)) in
  let cf = 1.0 -. (vdseff /. cden) in
  let cf_g = cf_of ~cden ~vdseff ve_g vg_g
  and cf_d = cf_of ~cden ~vdseff ve_d vg_d
  and cf_b = cf_of ~cden ~vdseff ve_b vg_b in
  let dv2 = 1.0 +. (vdseff /. esat_l) in
  let dv2_g = dv2_of ~esat_l ~esl' ~vdseff ve_g vg_g
  and dv2_d = dv2_of ~esat_l ~esl' ~vdseff ve_d vg_d
  and dv2_b = dv2_of ~esat_l ~esl' ~vdseff ve_b vg_b in
  let kk = p.cox *. w /. l in
  let id_core = kk *. mu_eff *. vgsteff *. vdseff *. cf /. dv2 in
  let idc_g =
    id_core_of ~kk ~mu' ~mu_eff ~vgsteff ~vdseff ~cf ~dv2 ~id_core vg_g ve_g
      cf_g dv2_g
  in
  let idc_d =
    id_core_of ~kk ~mu' ~mu_eff ~vgsteff ~vdseff ~cf ~dv2 ~id_core vg_d ve_d
      cf_d dv2_d
  in
  let idc_b =
    id_core_of ~kk ~mu' ~mu_eff ~vgsteff ~vdseff ~cf ~dv2 ~id_core vg_b ve_b
      cf_b dv2_b
  in
  let lam_t = 1.0 +. (p.lambda *. (vds -. vdseff)) in
  let id = id_core *. lam_t in
  let id_g = (idc_g *. lam_t) -. (id_core *. p.lambda *. ve_g) in
  let id_d = (idc_d *. lam_t) +. (id_core *. p.lambda *. (1.0 -. ve_d)) in
  let id_b = (idc_b *. lam_t) -. (id_core *. p.lambda *. ve_b) in
  let wlc = w *. l *. p.cox in
  let qi = wlc *. vgsteff in
  let qi_g = wlc *. vg_g and qi_d = wlc *. vg_d and qi_b = wlc *. vg_b in
  let raw_s = vdseff /. vdsat in
  let sat_ratio = fclamp ~lo:0.0 ~hi:1.0 raw_s in
  (* The lower clamp never binds (vds >= 0 in the canonical quadrant), so
     only the saturation-side clamp zeroes the slope. *)
  let s_g = sat_of ~raw_s ~vdsat ve_g vdsat_g
  and s_d = sat_of ~raw_s ~vdsat ve_d vdsat_d
  and s_b = sat_of ~raw_s ~vdsat ve_b vdsat_b in
  let qd_frac = 0.5 -. (0.1 *. sat_ratio) in
  let qdf_g = -0.1 *. s_g and qdf_d = -0.1 *. s_d and qdf_b = -0.1 *. s_b in
  let cw = p.cov *. w in
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

let device ?(name = "bsim4lite") ~polarity p =
  Device_model.make ~name ~polarity ~width:(weff p) ~length:(leff p)
    ~canonical_derivs:(canonical_derivs p) ~canonical:(canonical p) ()

let parameter_count = 20

type polarity = Nmos | Pmos

type terminal_state = {
  id : float;
  qg : float;
  qd : float;
  qs : float;
  qb : float;
}

type canonical_kernel = partials:bool -> float array -> unit

type derivs = {
  v : float array;
  did : float array;
  dq : float array;
  kbuf : float array;
}

let make_derivs () =
  {
    v = Array.make 5 0.0;
    did = Array.make 4 0.0;
    dq = Array.make 16 0.0;
    kbuf = Array.make 20 0.0;
  }

type eval_derivs = vg:float -> vd:float -> vs:float -> vb:float -> derivs -> unit

type t = {
  name : string;
  polarity : polarity;
  width : float;
  length : float;
  eval : vg:float -> vd:float -> vs:float -> vb:float -> terminal_state;
  eval_derivs : eval_derivs option;
}

let sign_of = function Nmos -> 1.0 | Pmos -> -1.0

(* The helpers of both paths, top-level and forced inline so the
   [eval_derivs] closure built by [make] allocates nothing: a local closure
   would be allocated per call, and under classic ocamlopt an out-of-line
   call with a float argument or result boxes it.

   [load_canonical] mirrors a PMOS into the NMOS quadrant, orders source
   and drain so the kernel only ever sees vds >= 0, and writes vgs/vds/vbs
   into the kernel buffer; it returns whether source and drain swapped. *)
let[@inline always] load_canonical k sign ~vg ~vd ~vs ~vb =
  let vg = sign *. vg and vd = sign *. vd and vs = sign *. vs
  and vb = sign *. vb in
  let swapped = vd < vs in
  let d = if swapped then vs else vd in
  let s = if swapped then vd else vs in
  k.(0) <- vg -. s;
  k.(1) <- d -. s;
  k.(2) <- vb -. s;
  swapped

(* Chain rule from the canonical partials of one output, [k.(o)],
   [k.(o+1)], [k.(o+2)] = (f_gs, f_ds, f_bs), to the four terminal
   voltages.  With terminal index order (g, d, s, b) and [can_d]/[can_s]
   the physical terminals playing canonical drain/source:
     df/dVg      = f_gs
     df/dV_can_d = f_ds
     df/dVb      = f_bs
     df/dV_can_s = -(f_gs + f_ds + f_bs)
   The polarity mirror drops out entirely: outputs carry one factor of
   [sign] and the input voltages another, and sign^2 = 1. *)
let[@inline always] write4 arr off k o ~can_d ~can_s scale =
  let fgs = k.(o) and fds = k.(o + 1) and fbs = k.(o + 2) in
  arr.(off) <- scale *. fgs;
  arr.(off + can_d) <- scale *. fds;
  arr.(off + 3) <- scale *. fbs;
  arr.(off + can_s) <- -.scale *. (fgs +. fds +. fbs)

(* Kernel-buffer offset of output [o]'s three partials. *)
let[@inline always] partials o = 5 + (3 * o)

let[@inline always] swap_sign swapped = if swapped then -1.0 else 1.0

(* Map the kernel's canonical values [k.(0..4)] back to terminal order and
   sign in [v.(0..4)]; [v] may be [k]. *)
let[@inline always] store_values sign swapped k v =
  let qd = k.(2) and qs = k.(3) in
  v.(0) <- sign *. swap_sign swapped *. k.(0);
  v.(1) <- sign *. k.(1);
  v.(2) <- sign *. (if swapped then qs else qd);
  v.(3) <- sign *. (if swapped then qd else qs);
  v.(4) <- sign *. k.(4)

(* The same, then the kernel's partials through the chain rule. *)
let[@inline always] store_terminal sign swapped k out =
  let can_d = if swapped then 2 else 1 in
  let can_s = if swapped then 1 else 2 in
  store_values sign swapped k out.v;
  write4 out.did 0 k (partials 0) ~can_d ~can_s (swap_sign swapped);
  (* dq rows in physical terminal order g, d, s, b; the physical drain's
     charge is the canonical source's when swapped. *)
  let dq = out.dq in
  write4 dq 0 k (partials 1) ~can_d ~can_s 1.0;
  write4 dq 4 k (partials (if swapped then 3 else 2)) ~can_d ~can_s 1.0;
  write4 dq 8 k (partials (if swapped then 2 else 3)) ~can_d ~can_s 1.0;
  write4 dq 12 k (partials 4) ~can_d ~can_s 1.0

let canonical_key polarity key =
  let sign = sign_of polarity in
  let vg = key.(0) and vd = key.(1) and vs = key.(2) and vb = key.(3) in
  let swapped = load_canonical key sign ~vg ~vd ~vs ~vb in
  key.(3) <- (if swapped then 1.0 else 0.0)

let make ~name ~polarity ~width ~length ~(kernel : canonical_kernel) =
  let sign = sign_of polarity in
  {
    name;
    polarity;
    width;
    length;
    eval =
      (fun ~vg ~vd ~vs ~vb ->
        (* A literal with variable elements is allocated inline; an
           all-constant one is copied by a C call, as [Array.make] is.
           [load_canonical] overwrites the first three. *)
        let k = [| vg; vd; vs; vb; 0.0 |] in
        let swapped = load_canonical k sign ~vg ~vd ~vs ~vb in
        kernel ~partials:false k;
        store_values sign swapped k k;
        { id = k.(0); qg = k.(1); qd = k.(2); qs = k.(3); qb = k.(4) });
    eval_derivs =
      Some
        (fun ~vg ~vd ~vs ~vb out ->
          let k = out.kbuf in
          let swapped = load_canonical k sign ~vg ~vd ~vs ~vb in
          kernel ~partials:true k;
          store_terminal sign swapped k out);
  }

let ids t ~vg ~vd ~vs ~vb = (t.eval ~vg ~vd ~vs ~vb).id

let central f x dv = (f (x +. dv) -. f (x -. dv)) /. (2.0 *. dv)

let gm ?(dv = 1e-5) t ~vg ~vd ~vs ~vb =
  central (fun vg -> ids t ~vg ~vd ~vs ~vb) vg dv

let cgg ?(dv = 1e-5) t ~vg ~vd ~vs ~vb =
  central (fun vg -> (t.eval ~vg ~vd ~vs ~vb).qg) vg dv

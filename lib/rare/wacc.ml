type t = {
  mutable n : int;          (* samples folded in, zero-weight included *)
  mutable s1 : float;       (* sum of weights *)
  mutable s2 : float;       (* sum of squared weights *)
  mutable wmean : float;    (* self-normalized weighted mean *)
  mutable wm2 : float;      (* weighted sum of squared deviations *)
  mutable lo : float;       (* smallest value seen *)
  mutable hi : float;       (* largest value seen *)
  mutable wmax : float;     (* largest single weight seen *)
}

let create () =
  {
    n = 0;
    s1 = 0.0;
    s2 = 0.0;
    wmean = 0.0;
    wm2 = 0.0;
    lo = infinity;
    hi = neg_infinity;
    wmax = 0.0;
  }

(* West (1979) incremental weighted mean/M2: the weighted Welford update.
   This is the importance-sampling inner loop — one call per Monte Carlo
   sample — so it must not allocate. *)
let[@vstat.hot] add t ~w x =
  t.n <- t.n + 1;
  if x < t.lo then t.lo <- x;
  if x > t.hi then t.hi <- x;
  if w > 0.0 then begin
    if w > t.wmax then t.wmax <- w;
    let s1' = t.s1 +. w in
    let delta = x -. t.wmean in
    let r = delta *. w /. s1' in
    t.wmean <- t.wmean +. r;
    t.wm2 <- t.wm2 +. (t.s1 *. delta *. r);
    t.s1 <- s1';
    t.s2 <- t.s2 +. (w *. w)
  end

let merge a b =
  if a.s1 <= 0.0 then
    { b with n = a.n + b.n;
      lo = Float.min a.lo b.lo; hi = Float.max a.hi b.hi }
  else if b.s1 <= 0.0 then
    { a with n = a.n + b.n;
      lo = Float.min a.lo b.lo; hi = Float.max a.hi b.hi }
  else begin
    let s1 = a.s1 +. b.s1 in
    let delta = b.wmean -. a.wmean in
    {
      n = a.n + b.n;
      s1;
      s2 = a.s2 +. b.s2;
      wmean = a.wmean +. (delta *. b.s1 /. s1);
      wm2 = a.wm2 +. b.wm2 +. (delta *. delta *. a.s1 *. b.s1 /. s1);
      lo = Float.min a.lo b.lo;
      hi = Float.max a.hi b.hi;
      wmax = Float.max a.wmax b.wmax;
    }
  end

let count t = t.n
let sum_weights t = t.s1
let sum_sq_weights t = t.s2
let mean t = if t.s1 > 0.0 then t.wmean else Float.nan

let ess t = if t.s2 > 0.0 then t.s1 *. t.s1 /. t.s2 else 0.0

let variance t =
  let e = ess t in
  if e > 1.0 then t.wm2 /. (t.s1 -. (t.s2 /. t.s1)) else Float.nan

let max_weight t = t.wmax

let dump t =
  [| Float.of_int t.n; t.s1; t.s2; t.wmean; t.wm2; t.lo; t.hi; t.wmax |]

let restore v =
  if Array.length v <> 8 then
    invalid_arg
      (Printf.sprintf "Wacc.restore: expected 8 state fields, got %d"
         (Array.length v));
  let n = Float.to_int v.(0) in
  if (not (Float.equal (Float.of_int n) v.(0))) || n < 0 then
    invalid_arg
      (Printf.sprintf "Wacc.restore: count %g is not a sample count" v.(0));
  if (not (Float.is_finite v.(1))) || v.(1) < 0.0 then
    invalid_arg
      (Printf.sprintf "Wacc.restore: weight sum %g must be finite and >= 0"
         v.(1));
  {
    n;
    s1 = v.(1);
    s2 = v.(2);
    wmean = v.(3);
    wm2 = v.(4);
    lo = v.(5);
    hi = v.(6);
    wmax = v.(7);
  }

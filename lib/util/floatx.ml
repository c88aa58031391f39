let close ?(rtol = 1e-9) ?(atol = 1e-12) a b =
  Float.abs (a -. b) <= atol +. (rtol *. Float.max (Float.abs a) (Float.abs b))

let clamp ~lo ~hi x = if x < lo then lo else if x > hi then hi else x

let linspace a b n =
  if n < 2 then invalid_arg "Floatx.linspace: need at least 2 points";
  let step = (b -. a) /. Float.of_int (n - 1) in
  Array.init n (fun i -> a +. (step *. Float.of_int i))

let logspace a b n =
  Array.map (fun e -> 10.0 ** e) (linspace a b n)

let interp_linear ~xs ~ys x =
  let n = Array.length xs in
  if n = 0 || Array.length ys <> n then
    invalid_arg "Floatx.interp_linear: arrays must be non-empty and equal";
  if n = 1 then ys.(0)
  else begin
    (* Binary search for the segment containing x. *)
    let lo = ref 0 and hi = ref (n - 1) in
    if x <= xs.(0) then hi := 1
    else if x >= xs.(n - 1) then lo := n - 2
    else
      while !hi - !lo > 1 do
        let mid = (!lo + !hi) / 2 in
        if xs.(mid) <= x then lo := mid else hi := mid
      done;
    let x0 = xs.(!lo) and x1 = xs.(!hi) in
    let y0 = ys.(!lo) and y1 = ys.(!hi) in
    y0 +. ((y1 -. y0) *. (x -. x0) /. (x1 -. x0))
  end

let first_crossing ?(start = 0) ?min_x ~xs ~ys ~level ~rising () =
  let n = Array.length xs in
  let crossed y0 y1 =
    if rising then y0 < level && y1 >= level else y0 > level && y1 <= level
  in
  let keep x = match min_x with None -> true | Some m -> x >= m in
  let rec scan i =
    if i >= n - 1 then None
    else begin
      let y0 = ys.(i) and y1 = ys.(i + 1) in
      if crossed y0 y1 then begin
        let frac = (level -. y0) /. (y1 -. y0) in
        let x = xs.(i) +. (frac *. (xs.(i + 1) -. xs.(i))) in
        if keep x then Some x else scan (i + 1)
      end
      else scan (i + 1)
    end
  in
  scan (Int.max 0 start)

let log10_safe x = log10 (Float.max x 1e-300)

let softplus x =
  if x > 40.0 then x
  else if x < -40.0 then exp x
  else log1p (exp x)

let pp_table ppf ~header ~rows =
  let all = header :: rows in
  let columns = List.length header in
  let width col =
    List.fold_left
      (fun acc row ->
        match List.nth_opt row col with
        | Some cell -> Int.max acc (String.length cell)
        | None -> acc)
      0 all
  in
  let widths = List.init columns width in
  let render row =
    let cells =
      List.mapi
        (fun i w ->
          let cell = match List.nth_opt row i with Some c -> c | None -> "" in
          cell ^ String.make (w - String.length cell) ' ')
        widths
    in
    String.concat "  " cells
  in
  let rule =
    String.concat "  " (List.map (fun w -> String.make w '-') widths)
  in
  Format.fprintf ppf "%s@\n%s@\n" (render header) rule;
  List.iter (fun row -> Format.fprintf ppf "%s@\n" (render row)) rows

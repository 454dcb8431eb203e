type t = {
  width : int;
  depth : int;
  seed : int;
  rows : float array array; (* depth x width *)
}

let create ~width ~depth ~seed =
  if width <= 0 then invalid_arg "Count_min.create: width must be positive";
  if depth <= 0 then invalid_arg "Count_min.create: depth must be positive";
  { width; depth; seed; rows = Array.init depth (fun _ -> Array.make width 0.0) }

(* splitmix64 finalizer over (key, row, seed): cheap, deterministic, and
   well-mixed across rows. *)
let bucket t ~key row =
  let open Int64 in
  let z = of_int (key lxor (row * 0x9E3779B9) lxor (t.seed * 0x85EBCA6B)) in
  let z = add z 0x9E3779B97F4A7C15L in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  let z = logxor z (shift_right_logical z 31) in
  to_int (rem (logand z max_int) (of_int t.width))

let update t ~key volume =
  if volume < 0.0 then invalid_arg "Count_min.update: negative volume";
  for row = 0 to t.depth - 1 do
    let b = bucket t ~key row in
    t.rows.(row).(b) <- t.rows.(row).(b) +. volume
  done

let estimate t ~key =
  let best = ref infinity in
  for row = 0 to t.depth - 1 do
    let v = t.rows.(row).(bucket t ~key row) in
    if v < !best then best := v
  done;
  if !best = infinity then 0.0 else !best

let reset t = Array.iter (fun row -> Array.fill row 0 (Array.length row) 0.0) t.rows

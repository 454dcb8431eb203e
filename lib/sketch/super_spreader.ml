type t = {
  depth : int;
  width : int;
  threshold : int;
  seed : int;
  rows : Distinct.t array array; (* depth x width *)
  candidates : (int, unit) Hashtbl.t; (* sources seen this epoch *)
  mutable pairs : int; (* connections observed this epoch *)
}

let create ?(depth = 4) ?(cell_bits = 64) ~cells ~threshold ~seed () =
  if cells < depth then invalid_arg "Super_spreader.create: fewer cells than rows";
  if threshold <= 0 then invalid_arg "Super_spreader.create: threshold must be positive";
  let width = max 1 (cells / depth) in
  {
    depth;
    width;
    threshold;
    seed;
    rows =
      Array.init depth (fun row ->
          Array.init width (fun col -> Distinct.create ~bits:cell_bits ~seed:(seed + (row * 8191) + col)));
    candidates = Hashtbl.create 256;
    pairs = 0;
  }

let bucket t ~src row =
  let open Int64 in
  let z = of_int (src lxor (row * 0x85EBCA6B) lxor (t.seed * 0xC2B2AE35)) in
  let z = add z 0x9E3779B97F4A7C15L in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = logxor z (shift_right_logical z 31) in
  to_int (rem (logand z max_int) (of_int t.width))

let observe t ~src ~dst =
  for row = 0 to t.depth - 1 do
    Distinct.add t.rows.(row).(bucket t ~src row) dst
  done;
  Hashtbl.replace t.candidates src ();
  t.pairs <- t.pairs + 1

let begin_epoch t =
  Array.iter (fun row -> Array.iter Distinct.reset row) t.rows;
  Hashtbl.reset t.candidates;
  t.pairs <- 0

let fanout t ~src =
  let best = ref infinity in
  for row = 0 to t.depth - 1 do
    let v = Distinct.estimate t.rows.(row).(bucket t ~src row) in
    if v < !best then best := v
  done;
  if !best = infinity then 0.0 else !best

let detected t =
  Hashtbl.fold
    (fun src () acc ->
      let estimate = fanout t ~src in
      if estimate > float_of_int t.threshold then (src, estimate) :: acc else acc)
    t.candidates []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

let estimate_precision t =
  match detected t with
  | [] -> 1.0
  | ds ->
    (* Expected collision inflation per cell: other sources' destinations
       landing in the same bucket — on average pairs / width of them. *)
    let inflation = float_of_int t.pairs /. float_of_int t.width in
    let value (_, estimate) =
      if estimate -. inflation > float_of_int t.threshold then 1.0 else 0.5
    in
    List.fold_left (fun acc d -> acc +. value d) 0.0 ds /. float_of_int (List.length ds)

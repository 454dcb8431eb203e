let mean = function
  | [] -> 0.0
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let stddev xs =
  match xs with
  | [] | [ _ ] -> 0.0
  | _ ->
    let m = mean xs in
    let sq = List.fold_left (fun acc x -> acc +. ((x -. m) *. (x -. m))) 0.0 xs in
    sqrt (sq /. float_of_int (List.length xs))

let percentile p xs =
  if p < 0.0 || p > 100.0 then invalid_arg "Stats.percentile: p out of range";
  if xs = [] then Float.nan
  else begin
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  let rank = p /. 100.0 *. float_of_int (n - 1) in
  let lo = int_of_float (Float.floor rank) in
  let hi = int_of_float (Float.ceil rank) in
  if lo = hi then a.(lo)
  else begin
    let frac = rank -. float_of_int lo in
    (a.(lo) *. (1.0 -. frac)) +. (a.(hi) *. frac)
  end
  end

let median xs = percentile 50.0 xs

let minimum = function
  | [] -> invalid_arg "Stats.minimum: empty sample"
  | x :: xs -> List.fold_left min x xs

let maximum = function
  | [] -> invalid_arg "Stats.maximum: empty sample"
  | x :: xs -> List.fold_left max x xs

let approx_equal ?(eps = 1e-9) a b =
  (* |a - b| <= eps; inf -. inf is nan, so equal infinities need the
     IEEE-equality case, and any nan operand falls through to false. *)
  a = b || Float.abs (a -. b) <= eps

type summary = {
  count : int;
  mean : float;
  stddev : float;
  min : float;
  p5 : float;
  median : float;
  p95 : float;
  max : float;
}

let summarize = function
  | [] -> None
  | xs ->
    Some
      {
        count = List.length xs;
        mean = mean xs;
        stddev = stddev xs;
        min = minimum xs;
        p5 = percentile 5.0 xs;
        median = median xs;
        p95 = percentile 95.0 xs;
        max = maximum xs;
      }

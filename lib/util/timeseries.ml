type point = { epoch : int; value : float }

let binned samples ~bin =
  if bin <= 0 then invalid_arg "Timeseries.binned: bin must be positive";
  let groups = Hashtbl.create 32 in
  List.iter
    (fun (epoch, v) ->
      let b = epoch / bin * bin in
      let sum, n = match Hashtbl.find_opt groups b with Some x -> x | None -> (0.0, 0) in
      Hashtbl.replace groups b (sum +. v, n + 1))
    samples;
  Hashtbl.fold
    (fun b (sum, n) acc -> { epoch = b; value = sum /. float_of_int n } :: acc)
    groups []
  |> List.sort (fun a b -> Int.compare a.epoch b.epoch)

(* Eight block glyphs from U+2581 to U+2588, encoded as UTF-8 strings. *)
let bars = [| "\xe2\x96\x81"; "\xe2\x96\x82"; "\xe2\x96\x83"; "\xe2\x96\x84";
              "\xe2\x96\x85"; "\xe2\x96\x86"; "\xe2\x96\x87"; "\xe2\x96\x88" |]

let sparkline ~lo ~hi values =
  let span = hi -. lo in
  let buffer = Buffer.create (3 * List.length values) in
  List.iter
    (fun v ->
      let index =
        if span <= 0.0 then 0
        else begin
          let scaled = (v -. lo) /. span *. 7.0 in
          let i = int_of_float (Float.round scaled) in
          if i < 0 then 0 else if i > 7 then 7 else i
        end
      in
      Buffer.add_string buffer bars.(index))
    values;
  Buffer.contents buffer

let of_points points = List.map (fun p -> p.value) points

let pp_series ppf ~name points =
  let values = of_points points in
  match values with
  | [] -> Format.fprintf ppf "%-16s (no data)" name
  | _ :: _ ->
    let mean = List.fold_left ( +. ) 0.0 values /. float_of_int (List.length values) in
    let lo = List.fold_left Float.min infinity values in
    let hi = List.fold_left Float.max neg_infinity values in
    Format.fprintf ppf "%-16s %s  min %.2f  mean %.2f  max %.2f" name (sparkline ~lo ~hi values)
      lo mean hi

module Prefix = Dream_prefix.Prefix

type t = {
  over : string;
  threshold : float;
  accuracy : float;
  leaf_length : int;
}

let heavy_hitters ~over = { over; threshold = 8.0; accuracy = 0.8; leaf_length = 32 }

let exceeding_mb threshold t = { t with threshold }

let with_accuracy accuracy t = { t with accuracy }

let drill_to leaf_length t = { t with leaf_length }

let to_spec t =
  match Prefix.of_string t.over with
  | exception Invalid_argument _ ->
    Error (Printf.sprintf "invalid flow filter %S (expected e.g. \"10.0.0.0/8\")" t.over)
  | filter ->
    if t.threshold <= 0.0 then Error "threshold must be positive"
    else begin
      if t.accuracy < 0.0 || t.accuracy > 1.0 then
        Error "accuracy bound must lie in [0, 1]"
      else if t.leaf_length <= Prefix.length filter || t.leaf_length > Prefix.address_bits then
        Error
          (Printf.sprintf "drill depth /%d must be finer than the filter /%d (and at most /32)"
             t.leaf_length (Prefix.length filter))
      else
        Ok
          (Task_spec.make ~kind:Task_spec.Heavy_hitter ~filter ~leaf_length:t.leaf_length
             ~threshold:t.threshold ~accuracy_bound:t.accuracy ())
    end

let to_spec_exn t =
  match to_spec t with Ok spec -> spec | Error msg -> invalid_arg ("Query.to_spec_exn: " ^ msg)

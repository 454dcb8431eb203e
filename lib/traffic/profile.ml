type phase = { start_epoch : int; heavy_scale : float }

type t = {
  threshold : float;
  heavy_count : int;
  medium_count : int;
  small_count : int;
  heavy_alpha : float;
  churn : float;
  jitter : float;
  phases : phase list;
  switch_skew : float;
}

let default ~threshold =
  {
    threshold;
    heavy_count = 16;
    medium_count = 24;
    small_count = 64;
    heavy_alpha = 1.25;
    churn = 0.005;
    jitter = 0.1;
    phases =
      [
        { start_epoch = 0; heavy_scale = 1.0 };
        { start_epoch = 100; heavy_scale = 0.5 };
        { start_epoch = 200; heavy_scale = 2.0 };
        { start_epoch = 300; heavy_scale = 1.0 };
      ];
    switch_skew = 0.6;
  }

let emit w t =
  let module C = Dream_util.Codec in
  C.section w "profile";
  C.float w "threshold" t.threshold;
  C.int w "heavy_count" t.heavy_count;
  C.int w "medium_count" t.medium_count;
  C.int w "small_count" t.small_count;
  C.float w "heavy_alpha" t.heavy_alpha;
  C.float w "churn" t.churn;
  C.float w "jitter" t.jitter;
  C.float w "switch_skew" t.switch_skew;
  C.int w "phases" (List.length t.phases);
  List.iter
    (fun p ->
      C.int w "start_epoch" p.start_epoch;
      C.float w "heavy_scale" p.heavy_scale)
    t.phases

let parse r =
  let module C = Dream_util.Codec in
  C.expect_section r "profile";
  let threshold = C.float_field r "threshold" in
  let heavy_count = C.int_field r "heavy_count" in
  let medium_count = C.int_field r "medium_count" in
  let small_count = C.int_field r "small_count" in
  let heavy_alpha = C.float_field r "heavy_alpha" in
  let churn = C.float_field r "churn" in
  let jitter = C.float_field r "jitter" in
  let switch_skew = C.float_field r "switch_skew" in
  let n = C.int_field r "phases" in
  let phases =
    C.repeat n (fun () ->
        let start_epoch = C.int_field r "start_epoch" in
        let heavy_scale = C.float_field r "heavy_scale" in
        { start_epoch; heavy_scale })
  in
  {
    threshold;
    heavy_count;
    medium_count;
    small_count;
    heavy_alpha;
    churn;
    jitter;
    phases;
    switch_skew;
  }

let validate t =
  let check cond msg = if cond then Ok () else Error msg in
  let ( let* ) r f = Result.bind r f in
  let* () = check (t.threshold > 0.0) "threshold must be positive" in
  let* () =
    check (t.heavy_count >= 0 && t.medium_count >= 0 && t.small_count >= 0)
      "source counts must be non-negative"
  in
  let* () = check (t.heavy_alpha > 1.0) "heavy_alpha must exceed 1" in
  let* () = check (t.churn >= 0.0 && t.churn <= 1.0) "churn must be a probability" in
  let* () = check (t.jitter >= 0.0) "jitter must be non-negative" in
  let* () = check (t.switch_skew >= 0.0) "switch_skew must be non-negative" in
  let rec sorted = function
    | [] | [ _ ] -> true
    | a :: (b :: _ as rest) -> a.start_epoch <= b.start_epoch && sorted rest
  in
  let* () = check (sorted t.phases) "phases must be sorted by start_epoch" in
  check (List.for_all (fun p -> p.heavy_scale >= 0.0) t.phases) "phase scales must be non-negative"

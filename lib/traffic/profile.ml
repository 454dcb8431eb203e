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

let codec =
  let open Dream_util.Codec in
  let phase =
    record
      (let+ start_epoch = field (int "start_epoch") (fun p -> p.start_epoch)
       and+ heavy_scale = field (float "heavy_scale") (fun p -> p.heavy_scale) in
       { start_epoch; heavy_scale })
  in
  section "profile"
    (record
       (let+ threshold = field (float "threshold") (fun t -> t.threshold)
        and+ heavy_count = field (int "heavy_count") (fun t -> t.heavy_count)
        and+ medium_count = field (int "medium_count") (fun t -> t.medium_count)
        and+ small_count = field (int "small_count") (fun t -> t.small_count)
        and+ heavy_alpha = field (float "heavy_alpha") (fun t -> t.heavy_alpha)
        and+ churn = field (float "churn") (fun t -> t.churn)
        and+ jitter = field (float "jitter") (fun t -> t.jitter)
        and+ switch_skew = field (float "switch_skew") (fun t -> t.switch_skew)
        and+ phases = field (repeat "phases" phase) (fun t -> t.phases) in
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
        }))

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

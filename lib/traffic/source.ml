type kind = Synthetic of Generator.t | Replay of { epochs : Epoch_data.t array; cycle : bool }

type t = { kind : kind; mutable clock : int }

let of_generator generator = { kind = Synthetic generator; clock = 0 }

let replay ?(cycle = true) epochs =
  if Array.length epochs = 0 then invalid_arg "Source.replay: empty trace";
  { kind = Replay { epochs; cycle }; clock = 0 }

let next t =
  let data =
    match t.kind with
    | Synthetic generator -> Generator.next generator
    | Replay { epochs; cycle } ->
      let n = Array.length epochs in
      let index = if cycle then t.clock mod n else t.clock in
      if index < n then epochs.(index)
      else
        {
          Epoch_data.epoch = t.clock;
          per_switch = Switch_id.Map.empty;
          combined = Aggregate.empty;
        }
  in
  t.clock <- t.clock + 1;
  { data with Epoch_data.epoch = t.clock - 1 }

let current_epoch t = t.clock

let emit w t =
  let module C = Dream_util.Codec in
  C.section w "source";
  C.int w "clock" t.clock;
  match t.kind with
  | Synthetic generator ->
    C.string w "kind" "synthetic";
    Generator.emit w generator
  | Replay { epochs; cycle } ->
    C.string w "kind" "replay";
    C.bool w "cycle" cycle;
    C.int w "epochs" (Array.length epochs);
    Array.iter
      (fun (data : Epoch_data.t) ->
        C.section w "epoch_data";
        C.int w "epoch" data.Epoch_data.epoch;
        C.int w "switches" (Switch_id.Map.cardinal data.Epoch_data.per_switch);
        Switch_id.Map.iter
          (fun sw aggregate ->
            C.int w "sw" sw;
            let flows =
              Aggregate.fold aggregate ~init:[] ~f:(fun acc f -> f :: acc) |> List.rev
            in
            C.int w "flows" (List.length flows);
            List.iter
              (fun (f : Flow.t) ->
                C.int w "addr" f.Flow.addr;
                C.float w "volume" f.Flow.volume)
              flows)
          data.Epoch_data.per_switch)
      epochs

let parse r =
  let module C = Dream_util.Codec in
  C.expect_section r "source";
  let clock = C.int_field r "clock" in
  let kind =
    match C.string_field r "kind" with
    | "synthetic" -> Synthetic (Generator.parse r)
    | "replay" ->
      let cycle = C.bool_field r "cycle" in
      let n = C.int_field r "epochs" in
      let epochs =
        C.repeat n (fun () ->
            C.expect_section r "epoch_data";
            let epoch = C.int_field r "epoch" in
            let switches = C.int_field r "switches" in
            let groups =
              C.repeat switches (fun () ->
                  let sw = C.int_field r "sw" in
                  let flows = C.int_field r "flows" in
                  let flows =
                    C.repeat flows (fun () ->
                        let addr = C.int_field r "addr" in
                        (* An aggregate indexes 32-bit addresses only. *)
                        if addr < 0 || addr lsr Dream_prefix.Prefix.address_bits <> 0 then
                          C.parse_error 0 (Printf.sprintf "address %d out of range" addr);
                        let volume = C.float_field r "volume" in
                        Flow.make ~addr ~volume)
                  in
                  (sw, flows))
            in
            Epoch_data.of_flows ~epoch groups)
        |> Array.of_list
      in
      Replay { epochs; cycle }
    | k -> C.parse_error 0 (Printf.sprintf "unknown source kind %S" k)
  in
  { kind; clock }

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

let codec =
  let open Dream_util.Codec in
  let flow =
    record
      (let+ addr =
         field
           (conv
              (fun addr ->
                (* An aggregate indexes 32-bit addresses only. *)
                if addr < 0 || addr lsr Dream_prefix.Prefix.address_bits <> 0 then
                  refuse (Printf.sprintf "address %d out of range" addr);
                addr)
              Fun.id (int "addr"))
           (fun (f : Flow.t) -> f.Flow.addr)
       and+ volume = field (float "volume") (fun (f : Flow.t) -> f.Flow.volume) in
       Flow.make ~addr ~volume)
  in
  let switch = pair (int "sw") (repeat "flows" flow) in
  let flows aggregate = Aggregate.fold aggregate ~init:[] ~f:(fun acc f -> f :: acc) |> List.rev in
  let epoch_data =
    section "epoch_data"
      (record
         (let+ epoch = field (int "epoch") (fun (d : Epoch_data.t) -> d.Epoch_data.epoch)
          and+ groups =
            field (repeat "switches" switch) (fun (d : Epoch_data.t) ->
                List.map
                  (fun (sw, aggregate) -> (sw, flows aggregate))
                  (Switch_id.Map.bindings d.Epoch_data.per_switch))
          in
          Epoch_data.of_flows ~epoch groups))
  in
  let replay =
    record
      (let+ cycle = field (bool "cycle") snd
       and+ epochs = field (conv Array.of_list Array.to_list (repeat "epochs" epoch_data)) fst in
       (epochs, cycle))
  in
  section "source"
    (record
       (let+ clock = field (int "clock") (fun t -> t.clock)
        and+ kind =
          field
            (cases ~what:"source kind" ~key:"kind"
               [
                 case "synthetic" Generator.codec
                   (fun g -> Synthetic g)
                   (function Synthetic g -> Some g | Replay _ -> None);
                 case "replay" replay
                   (fun (epochs, cycle) -> Replay { epochs; cycle })
                   (function
                     | Replay { epochs; cycle } -> Some (epochs, cycle) | Synthetic _ -> None);
               ])
            (fun t -> t.kind)
        in
        { kind; clock }))

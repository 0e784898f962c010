type channel =
  | Timing
  | Trace
  | Address
  | Icache
  | Dcache
  | L2
  | Bpred
  | Instruction_count

let channels =
  [ Timing; Trace; Address; Icache; Dcache; L2; Bpred; Instruction_count ]

let channel_name = function
  | Timing -> "timing"
  | Trace -> "pc-trace"
  | Address -> "mem-address"
  | Icache -> "icache"
  | Dcache -> "dcache"
  | L2 -> "l2"
  | Bpred -> "branch-predictor"
  | Instruction_count -> "instruction-count"

let channel_of_name name =
  List.find_opt (fun ch -> channel_name ch = name) channels

(* Structural fingerprint: several independent components per channel
   instead of a single int, so two genuinely different attacker
   views cannot collide into "no leak" through one unlucky hash. Two
   digests over the same stream only agree by accident with probability
   ~2^-126, and the stream length / access counters are exact. *)
let fingerprint ch (view : Observable.view) =
  match ch with
  | Timing -> [ view.Observable.cycles ]
  | Trace ->
    [
      view.Observable.pc_digest;
      view.Observable.pc_digest2;
      view.Observable.instructions;
    ]
  | Address ->
    [
      view.Observable.addr_digest;
      view.Observable.addr_digest2;
      view.Observable.mem_ops;
    ]
  | Icache ->
    [
      view.Observable.il1_sig;
      view.Observable.il1_accesses;
      view.Observable.il1_misses;
    ]
  | Dcache ->
    [
      view.Observable.dl1_sig;
      view.Observable.dl1_accesses;
      view.Observable.dl1_misses;
    ]
  | L2 ->
    [
      view.Observable.l2_sig;
      view.Observable.l2_accesses;
      view.Observable.l2_misses;
    ]
  | Bpred -> [ view.Observable.bpred_sig; view.Observable.mispredicts ]
  | Instruction_count -> [ view.Observable.instructions ]

(* Channels with a witness stream; Timing and Instruction_count divergence
   positions come from the Timing / Trace streams respectively. *)
let stream_of_channel = function
  | Timing -> Witness.Timing
  | Trace -> Witness.Trace
  | Address -> Witness.Address
  | Icache -> Witness.Icache
  | Dcache -> Witness.Dcache
  | L2 -> Witness.L2
  | Bpred -> Witness.Bpred
  | Instruction_count -> Witness.Trace

type finding = {
  channel : channel;
  distinct : int;
  total : int;
  first_divergence : int option;
}

let leaks f = f.distinct > 1

let compare_views ?(witnesses = []) views =
  (* Zero or one view can never witness a leak: [distinct <= 1] for every
     channel no matter what the machine did, so a caller whose view list
     came up empty would silently read "no leak" out of a vacuous
     comparison. Make that an error instead of a false negative. *)
  if List.length views < 2 then
    invalid_arg "Leakage.compare_views: need at least 2 views to compare";
  List.map
    (fun channel ->
      let values = List.map (fingerprint channel) views in
      let first_divergence =
        match witnesses with
        | w0 :: rest when rest <> [] ->
          let stream = stream_of_channel channel in
          List.fold_left
            (fun acc w ->
              match (acc, Witness.first_divergence w0 w stream) with
              | (Some a, Some b) -> Some (min a b)
              | (None, d) -> d
              | (d, None) -> d)
            None rest
        | _ -> None
      in
      {
        channel;
        distinct = List.length (List.sort_uniq compare values);
        total = List.length views;
        first_divergence;
      })
    channels

let leaky_channels views =
  List.filter_map
    (fun f -> if leaks f then Some f.channel else None)
    (compare_views views)

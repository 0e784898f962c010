type t = {
  name : string;
  predict : pc:int -> bool;
  update : pc:int -> taken:bool -> unit;
  reset : unit -> unit;
  snapshot_signature : unit -> int;
  save_state : unit -> string;
  load_state : string -> unit;
}


module Scheme = Sempe_core.Scheme
module Run = Sempe_core.Run
module Exec = Sempe_core.Exec
module Codegen = Sempe_lang.Codegen
module Shadow = Sempe_lang.Shadow
module Config = Sempe_pipeline.Config
module Cache = Sempe_mem.Cache
module Hierarchy = Sempe_mem.Hierarchy

type built = {
  scheme : Scheme.t;
  ast : Sempe_lang.Ast.program;
  prog : Sempe_isa.Program.t;
  layout : Codegen.layout;
}

let transform ?(fault = Exec.No_fault) scheme ast =
  match scheme with
  | Scheme.Baseline -> Shadow.strip_secret_marks ast
  | Scheme.Sempe | Scheme.Sempe_on_legacy ->
    Shadow.privatize
      ~skip_merge:(fault = Exec.Skip_restore)
      ~skip_nt_shadow:(fault = Exec.Skip_nt_restore)
      ast
  | Scheme.Cte -> Sempe_cte.Baselines.cte ast
  | Scheme.Raccoon -> Sempe_cte.Baselines.raccoon ast
  | Scheme.Mto -> Sempe_cte.Baselines.mto ast

let build ?fault scheme ast =
  let ast = transform ?fault scheme ast in
  let prog, layout = Codegen.compile ast in
  { scheme; ast; prog; layout }

let init_mem_of built ~globals ~arrays mem =
  List.iter
    (fun (name, value) ->
      mem.(Codegen.scalar_offset built.layout name) <- value)
    globals;
  List.iter
    (fun (name, values) ->
      let off, size = Codegen.array_slice built.layout name in
      if Array.length values <> size then
        invalid_arg
          (Printf.sprintf "Harness.run: array %S expects %d values, got %d"
             name size (Array.length values));
      Array.blit values 0 mem off size)
    arrays

let stack_reserve_words = 4096

(* The period of a data cache's set index, in words: addresses that far
   apart map to the same set. Set counts are powers of two (Cache.create
   checks), so the largest span is a multiple of every smaller one. *)
let set_span_words (machine : Config.t) =
  let span (c : Cache.config) =
    c.Cache.size_bytes / c.Cache.ways / machine.Config.word_bytes
  in
  let h = machine.Config.hierarchy in
  max (span h.Hierarchy.dl1) (span h.Hierarchy.l2)

let image_words ?(machine = Config.default) built =
  let s = set_span_words machine in
  let need = built.prog.Sempe_isa.Program.data_words + stack_reserve_words in
  (need + s - 1) / s * s

let run ?machine ?mem_words ?max_instrs ?forgiving_oob ?fault
    ?(globals = []) ?(arrays = []) ?observe ?sink built =
  let mem_words =
    match mem_words with
    | Some w -> w
    | None -> image_words ?machine built
  in
  Run.simulate
    ~support:(Scheme.support built.scheme)
    ?machine ~mem_words ?max_instrs ?forgiving_oob ?fault
    ~init_mem:(init_mem_of built ~globals ~arrays)
    ?observe ?sink built.prog

let sample ?machine ?(mem_words = 1 lsl 20) ?max_instrs ?forgiving_oob ?fault
    ?(globals = []) ?(arrays = []) ?config ?workers ?plan ?plan_out
    ?cost_fallback built =
  Sempe_sampling.Sampling.estimate
    ~support:(Scheme.support built.scheme)
    ?machine ~mem_words ?max_instrs ?forgiving_oob ?fault
    ~init_mem:(init_mem_of built ~globals ~arrays)
    ?config ?workers ?plan ?plan_out ?cost_fallback built.prog

let return_value (o : Run.outcome) = o.Run.exec.Exec.regs.(Sempe_isa.Reg.rv)

let read_global built (o : Run.outcome) name =
  o.Run.exec.Exec.memory.(Codegen.scalar_offset built.layout name)

let read_array built (o : Run.outcome) name =
  let off, size = Codegen.array_slice built.layout name in
  Array.sub o.Run.exec.Exec.memory off size

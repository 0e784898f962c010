(** Square-and-multiply modular exponentiation — Figure 1 of the paper.

    The classic branch side channel: the multiply-and-reduce step runs only
    for the key bits that are set, so timing (and the branch predictor, and
    the cache) reveal the exponent. The conditional is annotated secret;
    under SeMPE both paths execute every iteration. *)

val key_bits : int
(** Exponent width (16). *)

val base : int
val modulus : int
(** The public base (1234) and modulus (99991) every run uses; only the
    exponent is secret. *)

val default_key : int
(** The exponent a run uses unless told otherwise (0x1234). *)

val program : Sempe_lang.Ast.program
(** [main] computes [base ^ key mod modulus]; the key lives in the
    ["ebits"] array (most-significant bit first), [base] and [modulus] are
    globals. *)

val inputs : key:int -> base:int -> modulus:int -> (string * int) list * (string * int array) list
(** Harness initializers. [key] must fit in {!key_bits} bits. *)

val ct_program : Sempe_lang.Ast.program
(** The hand-written constant-time alternative: a Montgomery ladder whose
    per-bit swap is a pair of selects (CMOV), no secret branches at all.
    This is the "large manual effort" the paper's introduction says CTE
    demands of crypto libraries; it runs leak-free on a plain machine and
    serves as the manual-effort comparison point for SeMPE. *)

val reference : key:int -> base:int -> modulus:int -> int
(** Ground truth computed directly in OCaml. *)

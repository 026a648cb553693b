//! Code generation (§5.3): lowering optimized Quill IR onto an HE backend
//! through the scheme layer, plus SEAL-style C++ emission (Figure 3f).
//!
//! Quill instructions map **1:1** onto [`crate::scheme::Scheme`] evaluator
//! calls — codegen performs no rewrites of its own, and the same generic
//! [`Runner`] body executes on every scheme instantiation ([`BfvRunner`],
//! [`BgvRunner`]). Relinearization is an explicit IR instruction
//! ([`quill::program::Instr::Relin`]) placed by the middle-end
//! ([`crate::opt`]): `mul-ct-ct` lowers to a bare `multiply` whose size-3
//! result stays size 3 until the IR says otherwise, `relin-ct` lowers to
//! `relinearize`, and `emit_seal_cpp` emits `relinearize_inplace` only
//! where the IR carries a `relin-ct`. Programs must be legal for the
//! target scheme ([`quill::analysis::check_backend_legal_with`] under
//! `S::ID.legality()` — rotation/multiply operands and the output
//! statically size 2, no ops outside the scheme's instruction set) — run
//! them through [`crate::opt::optimize`] at any `-O` level first; `-O0`
//! reproduces the paper's eager relin-after-every-multiply lowering
//! exactly.
//!
//! Model-size slot semantics carry over to the full ciphertext because every
//! lifted kernel passes the padding-stability check ([`crate::lift`]): data
//! lives in row-0 slots `[0, n)` and all other slots are zero.
//!
//! The paper's client/server sequence — generate keys, encrypt the packed
//! inputs, run the kernel, decrypt and decode — is one [`Session`];
//! [`run_encrypted`] runs it on the backend a runtime [`SchemeId`] names.
//!
//! One execution engine runs every program: each call builds a `Plan` of
//! tasks (the instructions plus one hoist task per rotation fan), which
//! workers drain through one instruction dispatch. It adds three
//! semantics-preserving performance layers to the 1:1 lowering:
//!
//! - **Rotation hoisting**: rotations grouped into a same-source fan by
//!   [`quill::analysis::rotation_fans`] share one digit decomposition
//!   ([`Scheme::hoist`], the fan's hoist task) and pay only the
//!   per-Galois-element accumulate ([`Scheme::rotate_hoisted`]) each.
//! - **In place at last use**: an operand whose remaining use count is 1
//!   is moved out and mutated, or recycled into the worker's scratch pool,
//!   instead of cloned.
//! - **DAG parallelism**: worker 0 is the caller's thread; with
//!   [`Runner::with_eval_jobs`] above 1 the other workers are scoped
//!   threads, each with its own evaluator (and thus its own scratch pool). The ready queue hands out the lowest
//!   program index first, so one worker runs the program in order. Because
//!   every scheme op is exact modular arithmetic and the `_assign`
//!   evaluator variants are bit-identical to their pure counterparts,
//!   decryptions are bit-identical at any worker count.

use crate::scheme::{BfvScheme, BgvScheme, Scheme};
use quill::analysis::{rotation_fans, RotationFan};
use quill::program::{Instr, Program, PtOperand, ValRef};
use quill::scheme::SchemeId;
use rand::Rng;
use rlwe_ring::params::{ParamError, RlweParams};
use std::borrow::Cow;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::fmt::Write as _;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError, RwLock};

/// Executes Quill programs on a scheme backend with the keys they need.
///
/// The runner is encode-once at session level: splat constants are encoded
/// into a cache the first time any program references them and reused for
/// the runner's lifetime, and callers holding plaintexts that outlive one
/// `run` call can pre-encode them with [`Scheme::preencode`] and use
/// [`Runner::run_encoded`] so no encode work lands on the timed path.
pub struct Runner<'a, S: Scheme = BfvScheme> {
    ctx: &'a S::Context,
    encoder: S::Encoder<'a>,
    evaluator: S::Evaluator<'a>,
    relin: Option<S::RelinKey>,
    galois: S::GaloisKeys,
    splats: std::cell::RefCell<BTreeMap<i64, S::EvalPlaintext>>,
    /// Workers per run: 1 unless set by [`Runner::with_eval_jobs`].
    eval_jobs: NonZeroUsize,
}

/// The [`Runner`] over the BFV backend.
pub type BfvRunner<'a> = Runner<'a, BfvScheme>;
/// The [`Runner`] over the BGV backend.
pub type BgvRunner<'a> = Runner<'a, BgvScheme>;

impl<S: Scheme> std::fmt::Debug for Runner<'_, S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Runner")
            .field("scheme", &S::ID.name())
            .field("galois_elements", &S::galois_elements(&self.galois))
            .field("has_relin", &self.relin.is_some())
            .finish()
    }
}

impl<'a, S: Scheme> Runner<'a, S> {
    /// Prepares a runner able to execute all of `programs`: generates Galois
    /// keys for every rotation they use and a relinearization key if any of
    /// them multiplies ciphertexts.
    pub fn for_programs<R: Rng + ?Sized>(
        ctx: &'a S::Context,
        keygen: &S::KeyGenerator<'a>,
        programs: &[&Program],
        rng: &mut R,
    ) -> Self {
        let mut steps: Vec<i64> = programs.iter().flat_map(|p| p.rotation_amounts()).collect();
        steps.sort_unstable();
        steps.dedup();
        let galois = S::galois_keys(keygen, &steps, false, rng);
        // A key is needed only for explicit relin-ct instructions; the mul
        // count is kept in the condition so preparing a runner from raw
        // (not-yet-lowered) programs still generates the key their lowered
        // forms will need.
        let needs_relin = programs
            .iter()
            .any(|p| p.relin_count() > 0 || p.ct_ct_mul_count() > 0);
        let relin = needs_relin.then(|| S::relin_key(keygen, rng));
        Runner {
            ctx,
            encoder: S::encoder(ctx),
            evaluator: S::evaluator(ctx),
            relin,
            galois,
            splats: std::cell::RefCell::new(BTreeMap::new()),
            eval_jobs: NonZeroUsize::MIN,
        }
    }

    /// Sets the worker count for execution. Worker 0 is the caller's
    /// thread, running on the runner's own evaluator, so `1` (the default)
    /// spawns no thread; each further worker is a scoped thread with an
    /// evaluator of its own. Decryptions are bit-identical at any setting.
    ///
    /// # Panics
    ///
    /// Panics if `jobs` is 0.
    pub fn with_eval_jobs(mut self, jobs: usize) -> Self {
        self.eval_jobs = NonZeroUsize::new(jobs).expect("eval jobs must be >= 1");
        self
    }

    /// The worker count programs execute with (see
    /// [`Runner::with_eval_jobs`]).
    pub fn eval_jobs(&self) -> usize {
        self.eval_jobs.get()
    }

    /// The batch encoder (for packing inputs and decoding outputs).
    pub fn encoder(&self) -> &S::Encoder<'a> {
        &self.encoder
    }

    /// The underlying evaluator.
    pub fn evaluator(&self) -> &S::Evaluator<'a> {
        &self.evaluator
    }

    /// Runs a scheme-legal program over encrypted inputs, executing the
    /// IR 1:1 — size-3 intermediates stay size 3 until a `relin-ct` says
    /// otherwise. Encodes each plaintext input once (per call) and
    /// delegates to [`Runner::run_encoded`].
    ///
    /// # Panics
    ///
    /// Panics if input arities mismatch the program, a required key is
    /// missing (prepare with [`Runner::for_programs`]), or the program
    /// is not backend-legal for the scheme (lower it with
    /// [`crate::opt::optimize`]).
    pub fn run(
        &self,
        prog: &Program,
        ct_inputs: &[&S::Ciphertext],
        pt_inputs: &[&S::Plaintext],
    ) -> S::Ciphertext {
        let pts: Vec<S::EvalPlaintext> = pt_inputs
            .iter()
            .map(|p| S::preencode(&self.evaluator, p))
            .collect();
        let pt_refs: Vec<&S::EvalPlaintext> = pts.iter().collect();
        self.run_encoded(prog, ct_inputs, &pt_refs)
    }

    /// Runs a scheme-legal program over encrypted inputs and pre-encoded
    /// plaintexts on the execution engine: a plan of the program's tasks,
    /// built for this call, drained by [`Runner::eval_jobs`] workers. The
    /// hot path is in place and encode-once: operands are borrowed (never
    /// cloned per use), splat constants hit the runner's session-level
    /// cache (each distinct value is encoded at most once per runner — the
    /// runtime mirror of `emit_seal_cpp`'s pre-encoded splats), an operand
    /// at its last use is mutated in place — or recycled into the worker's
    /// scratch pool — instead of allocating, and same-source rotation fans
    /// execute hoisted (one shared decomposition per fan).
    pub fn run_encoded(
        &self,
        prog: &Program,
        ct_inputs: &[&S::Ciphertext],
        pt_inputs: &[&S::EvalPlaintext],
    ) -> S::Ciphertext {
        assert_eq!(ct_inputs.len(), prog.num_ct_inputs, "ct input arity");
        assert_eq!(pt_inputs.len(), prog.num_pt_inputs, "pt input arity");
        if let Err(e) = quill::analysis::check_backend_legal_with(prog, &S::ID.legality()) {
            panic!(
                "{}: not backend-legal for {} ({e}); lower with porcupine::opt::optimize first",
                prog.name,
                S::ID
            );
        }
        // Fill splat-cache misses before execution; entries are never
        // evicted, so the shared borrow below stays valid for the whole
        // program.
        let t = S::params(self.ctx).plain_modulus as i64;
        {
            let mut cache = self.splats.borrow_mut();
            for instr in &prog.instrs {
                if let Instr::AddCtPt(_, PtOperand::Splat(v))
                | Instr::SubCtPt(_, PtOperand::Splat(v))
                | Instr::MulCtPt(_, PtOperand::Splat(v)) = instr
                {
                    cache.entry(*v).or_insert_with(|| {
                        let val = v.rem_euclid(t) as u64;
                        S::encode_eval(&self.encoder, &vec![val; S::slot_count(&self.encoder)])
                    });
                }
            }
        }
        // Keep the cell borrow on this frame and hand workers the plain
        // map reference (`Ref` itself is not `Sync`).
        let splats_guard = self.splats.borrow();
        let splats: &BTreeMap<i64, S::EvalPlaintext> = &splats_guard;
        let pt = |p: &PtOperand| match p {
            PtOperand::Input(i) => pt_inputs[*i],
            PtOperand::Splat(v) => &splats[v],
        };

        let plan = Plan::new(prog);
        let values = Values::<S>::new(ct_inputs, &plan);
        let queue = Queue::new(plan.pending.clone());
        // Per fan: the hoist task's decomposition, and the members left.
        let fans: Vec<(RwLock<Option<S::Hoisted>>, AtomicUsize)> = (plan.fans.iter())
            .map(|f| (RwLock::new(None), AtomicUsize::new(f.members.len())))
            .collect();
        // Workers cannot borrow `self` (the splat cache cell is not
        // `Sync`); capture the Sync pieces individually.
        let (ctx, galois, relin) = (self.ctx, &self.galois, self.relin.as_ref());
        let work = |ev: &S::Evaluator<'a>| {
            let _abort = AbortOnPanic(&queue);
            while let Some(t) = queue.next() {
                let j = match plan.tasks[t] {
                    Task::Instr(j) => j,
                    Task::Hoist(f) => {
                        let h = values.read(plan.fans[f].source, ev, |c| {
                            S::hoist(ev, c).expect("every shipped backend hoists")
                        });
                        *fans[f].0.write().expect(POISONED) = Some(h);
                        queue.complete(t, &plan.dependents);
                        continue;
                    }
                };
                let out = match &prog.instrs[j] {
                    Instr::AddCtCt(a, b) => {
                        // Addition commutes bitwise, so a dying `b` can
                        // become the destination as well.
                        let swap = values.dying(*b) && !values.dying(*a);
                        let (a, b) = if swap { (*b, *a) } else { (*a, *b) };
                        values.update(a, ev, |x| values.read(b, ev, |y| S::add_assign(ev, x, y)))
                    }
                    Instr::SubCtCt(a, b) => {
                        values.update(*a, ev, |x| values.read(*b, ev, |y| S::sub_assign(ev, x, y)))
                    }
                    Instr::MulCtCt(a, b) => {
                        values.read(*a, ev, |x| values.read(*b, ev, |y| S::multiply(ev, x, y)))
                    }
                    Instr::Relin(a) => {
                        let rk = relin.expect("relin key prepared for relin-ct");
                        values.update(*a, ev, |x| S::relinearize_assign(ev, x, rk))
                    }
                    Instr::AddCtPt(a, p) => {
                        values.update(*a, ev, |x| S::add_plain_assign(ev, x, pt(p)))
                    }
                    Instr::SubCtPt(a, p) => {
                        values.update(*a, ev, |x| S::sub_plain_assign(ev, x, pt(p)))
                    }
                    Instr::MulCtPt(a, p) => {
                        values.update(*a, ev, |x| S::mul_plain_assign(ev, x, pt(p)))
                    }
                    Instr::RotCt(a, steps) => match plan.fan_of[j] {
                        // A fan member rotates through its hoist task's
                        // decomposition; the fan's last member recycles it.
                        Some(f) => {
                            let out = {
                                let slot = fans[f].0.read().expect(POISONED);
                                let h = slot.as_ref().expect("hoist task ran");
                                values.read(*a, ev, |c| S::rotate_hoisted(ev, c, h, *steps, galois))
                            };
                            if fans[f].1.fetch_sub(1, Ordering::AcqRel) == 1 {
                                let h = fans[f].0.write().expect(POISONED).take();
                                S::recycle_hoisted(ev, h.expect("hoist task ran"));
                            }
                            out
                        }
                        None => {
                            values.update(*a, ev, |x| S::rotate_rows_assign(ev, x, *steps, galois))
                        }
                    },
                };
                values.set(j, out);
                queue.complete(t, &plan.dependents);
            }
        };
        std::thread::scope(|scope| {
            let helpers: Vec<_> = (1..self.eval_jobs())
                .map(|_| scope.spawn(|| work(&S::evaluator(ctx))))
                .collect();
            work(&self.evaluator);
            // Re-raise a helper's panic with its own payload (a missing key
            // names itself) rather than the scope's generic one.
            if let Err(payload) = helpers.into_iter().try_for_each(|h| h.join()) {
                std::panic::resume_unwind(payload);
            }
        });
        // The output is live through its pinned use.
        values.take(prog.output).expect("output live").into_owned()
    }
}

/// One client/server session (§5.3): a key generator, the public-key
/// encryptor and secret-key decryptor under it, and a [`Runner`] prepared
/// for a set of programs — everything needed to go from model slot vectors
/// to decrypted results.
///
/// [`Session::new`] draws from the rng in a fixed order — secret key,
/// public key, then the runner's Galois and relinearization keys — so one
/// seed always yields the same keys, ciphertexts and noise budgets.
/// Callers that time pre-encoded runs or build extra runners use the
/// public fields directly.
pub struct Session<'a, S: Scheme = BfvScheme> {
    /// The key generator, for keys beyond the runner's.
    pub keygen: S::KeyGenerator<'a>,
    /// Encrypts under the session's public key.
    pub encryptor: S::Encryptor<'a>,
    /// Decrypts under the session's secret key.
    pub decryptor: S::Decryptor<'a>,
    /// The runner, holding the keys the session's programs need.
    pub runner: Runner<'a, S>,
}

impl<'a, S: Scheme> Session<'a, S> {
    /// Generates the session's keys and a [`Runner`] for `programs` (see
    /// [`Runner::for_programs`]).
    pub fn new<R: Rng + ?Sized>(ctx: &'a S::Context, programs: &[&Program], rng: &mut R) -> Self {
        let keygen = S::keygen(ctx, rng);
        let encryptor = S::encryptor(ctx, &keygen, rng);
        let decryptor = S::decryptor(ctx, &keygen);
        let runner = Runner::for_programs(ctx, &keygen, programs, rng);
        Session {
            keygen,
            encryptor,
            decryptor,
            runner,
        }
    }

    /// Encodes slot values and encrypts them.
    pub fn encrypt<R: Rng + ?Sized>(&self, slots: &[u64], rng: &mut R) -> S::Ciphertext {
        let pt = S::encode(self.runner.encoder(), slots);
        S::encrypt(&self.encryptor, &pt, rng)
    }

    /// Decrypts and decodes a ciphertext, returning its slots and the
    /// measured remaining noise budget in bits.
    pub fn decrypt(&self, ct: &S::Ciphertext) -> (Vec<u64>, i64) {
        let slots = S::decode(self.runner.encoder(), &S::decrypt(&self.decryptor, ct));
        (slots, S::noise_budget(&self.decryptor, ct))
    }

    /// Encrypts `ct_model` (in order), encodes `pt_model`, runs `prog` and
    /// decrypts the result: the decoded slots and the measured remaining
    /// noise budget.
    ///
    /// # Panics
    ///
    /// As [`Runner::run`].
    pub fn run<R: Rng + ?Sized>(
        &self,
        prog: &Program,
        ct_model: &[Vec<u64>],
        pt_model: &[Vec<u64>],
        rng: &mut R,
    ) -> (Vec<u64>, i64) {
        let cts: Vec<S::Ciphertext> = ct_model.iter().map(|v| self.encrypt(v, rng)).collect();
        let encoder = self.runner.encoder();
        let pts: Vec<S::Plaintext> = pt_model.iter().map(|v| S::encode(encoder, v)).collect();
        let out = self.runner.run(
            prog,
            &cts.iter().collect::<Vec<_>>(),
            &pts.iter().collect::<Vec<_>>(),
        );
        self.decrypt(&out)
    }
}

/// A computation generic over the scheme backend, for callers holding a
/// runtime [`SchemeId`]: [`with_scheme`] runs it on the backend the id
/// names.
pub trait SchemeTask {
    /// What the computation returns.
    type Output;
    /// Runs the computation on backend `S`.
    fn run<S: Scheme>(self) -> Self::Output;
}

/// Runs `task` on the backend `scheme` names: the one place a runtime
/// [`SchemeId`] becomes a backend type for encrypted execution.
pub fn with_scheme<T: SchemeTask>(scheme: SchemeId, task: T) -> T::Output {
    match scheme {
        SchemeId::Bfv => task.run::<BfvScheme>(),
        SchemeId::Bgv => task.run::<BgvScheme>(),
    }
}

/// [`Session::run`] on the backend `scheme` names, under `params`: builds
/// the context and a session for `prog`, then encrypts, runs and decrypts
/// on `eval_jobs` workers ([`Runner::with_eval_jobs`]).
///
/// # Errors
///
/// Returns the backend's [`ParamError`] for unusable parameters.
///
/// # Panics
///
/// As [`Runner::run`].
pub fn run_encrypted<R: Rng + ?Sized>(
    scheme: SchemeId,
    params: RlweParams,
    prog: &Program,
    ct_model: &[Vec<u64>],
    pt_model: &[Vec<u64>],
    eval_jobs: NonZeroUsize,
    rng: &mut R,
) -> Result<(Vec<u64>, i64), ParamError> {
    struct Encrypted<'r, R: ?Sized> {
        params: RlweParams,
        prog: &'r Program,
        ct_model: &'r [Vec<u64>],
        pt_model: &'r [Vec<u64>],
        eval_jobs: NonZeroUsize,
        rng: &'r mut R,
    }
    impl<R: Rng + ?Sized> SchemeTask for Encrypted<'_, R> {
        type Output = Result<(Vec<u64>, i64), ParamError>;
        fn run<S: Scheme>(self) -> Self::Output {
            let ctx = S::context(self.params)?;
            let mut session = Session::<S>::new(&ctx, &[self.prog], self.rng);
            session.runner.eval_jobs = self.eval_jobs;
            Ok(session.run(self.prog, self.ct_model, self.pt_model, self.rng))
        }
    }
    let task = Encrypted {
        params,
        prog,
        ct_model,
        pt_model,
        eval_jobs,
        rng,
    };
    with_scheme(scheme, task)
}

const POISONED: &str = "lock poisoned by a panicked worker";

/// A task of a [`Plan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Task {
    /// Instruction `j` of the program.
    Instr(usize),
    /// The hoisted decomposition shared by rotation fan `f`.
    Hoist(usize),
}

/// The execution plan of one program. It is built per call (linear in
/// program size) rather than cached on the [`Runner`], which would need a
/// map keyed by program for no measured gain.
struct Plan {
    /// The tasks by rank: program order, with each fan's hoist task
    /// immediately before the fan's first member. Every dependency points
    /// to a lower rank, so one worker taking the lowest ready rank runs
    /// exactly this order.
    tasks: Vec<Task>,
    /// Per task, the number of task completions it waits on. A fan member
    /// waits only on its hoist task, which waits on the fan source.
    pending: Vec<usize>,
    /// Per task, the tasks its completion counts towards.
    dependents: Vec<Vec<usize>>,
    /// Per value ([`value_index`]): one use per operand occurrence, one
    /// per hoist task reading it, and one pinned, never released, for the
    /// program output.
    uses: Vec<usize>,
    /// The program's rotation fans.
    fans: Vec<RotationFan>,
    /// Per instruction, the fan it is a member of.
    fan_of: Vec<Option<usize>>,
}

impl Plan {
    fn new(prog: &Program) -> Plan {
        let (m, inputs) = (prog.instrs.len(), prog.num_ct_inputs);
        let fans = rotation_fans(prog);
        let mut fan_of = vec![None; m];
        for (f, fan) in fans.iter().enumerate() {
            for &j in &fan.members {
                fan_of[j] = Some(f);
            }
        }
        let mut tasks = Vec::with_capacity(m + fans.len());
        // Value slots produced by a task map to its rank; inputs to `None`.
        let (mut rank_of_value, mut rank_of_hoist) = (vec![None; inputs + m], vec![0; fans.len()]);
        for j in 0..m {
            if let Some(f) = fan_of[j].filter(|&f| fans[f].members[0] == j) {
                rank_of_hoist[f] = tasks.len();
                tasks.push(Task::Hoist(f));
            }
            rank_of_value[inputs + j] = Some(tasks.len());
            tasks.push(Task::Instr(j));
        }
        let mut pending = vec![0; tasks.len()];
        let mut dependents = vec![Vec::new(); tasks.len()];
        let mut uses = vec![0; inputs + m];
        let rank_of = |r: ValRef| rank_of_value[value_index(inputs, r)];
        for (t, task) in tasks.iter().enumerate() {
            let (reads, member_of) = match *task {
                Task::Instr(j) => (prog.instrs[j].ct_operands(), fan_of[j]),
                Task::Hoist(f) => (vec![fans[f].source], None),
            };
            let mut wait_on = |d: usize| {
                pending[t] += 1;
                dependents[d].push(t);
            };
            match member_of {
                Some(f) => wait_on(rank_of_hoist[f]),
                None => reads.iter().filter_map(|&r| rank_of(r)).for_each(wait_on),
            }
            for &r in &reads {
                uses[value_index(inputs, r)] += 1;
            }
        }
        uses[value_index(inputs, prog.output)] += 1;
        Plan {
            tasks,
            pending,
            dependents,
            uses,
            fans,
            fan_of,
        }
    }
}

/// The slot of a value: the ciphertext inputs first, then the instruction
/// results.
fn value_index(inputs: usize, r: ValRef) -> usize {
    match r {
        ValRef::Input(i) => i,
        ValRef::Instr(j) => inputs + j,
    }
}

/// Every value of one execution — the caller's inputs, borrowed, then the
/// instruction results, owned — with its remaining use count.
struct Values<'r, S: Scheme> {
    slots: Vec<RwLock<Option<Cow<'r, S::Ciphertext>>>>,
    uses: Vec<AtomicUsize>,
    inputs: usize,
}

impl<'r, S: Scheme> Values<'r, S> {
    fn new(ct_inputs: &[&'r S::Ciphertext], plan: &Plan) -> Self {
        let mut slots: Vec<_> = ct_inputs
            .iter()
            .map(|&c| RwLock::new(Some(Cow::Borrowed(c))))
            .collect();
        slots.resize_with(plan.uses.len(), || RwLock::new(None));
        Values {
            slots,
            uses: plan.uses.iter().map(|&u| AtomicUsize::new(u)).collect(),
            inputs: ct_inputs.len(),
        }
    }

    /// Whether the calling task holds the last remaining use of `r`.
    /// `a == b` counts two uses, so an aliased operand never dies early.
    fn dying(&self, r: ValRef) -> bool {
        self.uses[value_index(self.inputs, r)].load(Ordering::Acquire) == 1
    }

    fn take(&self, r: ValRef) -> Option<Cow<'r, S::Ciphertext>> {
        self.slots[value_index(self.inputs, r)]
            .write()
            .expect(POISONED)
            .take()
    }

    /// Runs `f` on a borrow of `r`, then releases that use; the last
    /// release recycles an owned value into `ev`'s scratch pool.
    fn read<T>(&self, r: ValRef, ev: &S::Evaluator<'_>, f: impl FnOnce(&S::Ciphertext) -> T) -> T {
        let i = value_index(self.inputs, r);
        let slot = self.slots[i].read().expect(POISONED);
        let out = f(slot.as_deref().expect("operand live"));
        drop(slot);
        if self.uses[i].fetch_sub(1, Ordering::AcqRel) == 1 {
            if let Some(Cow::Owned(dead)) = self.take(r) {
                S::recycle(ev, dead);
            }
        }
        out
    }

    /// `r` with `f` applied in place: moved out at its last use (a
    /// borrowed input is cloned then), else cloned from a borrow.
    fn update(
        &self,
        r: ValRef,
        ev: &S::Evaluator<'_>,
        f: impl FnOnce(&mut S::Ciphertext),
    ) -> S::Ciphertext {
        let mut x = if self.dying(r) {
            self.take(r).expect("operand live").into_owned()
        } else {
            self.read(r, ev, Clone::clone)
        };
        f(&mut x);
        x
    }

    fn set(&self, j: usize, ct: S::Ciphertext) {
        *self.slots[self.inputs + j].write().expect(POISONED) = Some(Cow::Owned(ct));
    }
}

/// The ready queue the workers share. Ready tasks come out lowest rank
/// first.
struct Queue {
    state: Mutex<QueueState>,
    cv: Condvar,
}

struct QueueState {
    ready: BinaryHeap<Reverse<usize>>,
    pending: Vec<usize>,
    /// Tasks not completed yet.
    left: usize,
    /// Workers blocked in [`Queue::next`].
    idle: usize,
    aborted: bool,
}

impl Queue {
    fn new(pending: Vec<usize>) -> Queue {
        let ready = (0..pending.len()).filter(|&t| pending[t] == 0);
        let ready = ready.map(Reverse).collect();
        let state = QueueState {
            ready,
            left: pending.len(),
            pending,
            idle: 0,
            aborted: false,
        };
        Queue {
            state: Mutex::new(state),
            cv: Condvar::new(),
        }
    }

    // A poisoned queue lock means a worker panicked while holding it; the
    // state is still sound (counters only), so keep going and let the abort
    // flag wind the workers down.
    fn lock(&self) -> MutexGuard<'_, QueueState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The next task to run, waiting for one to become ready; `None` once
    /// every task has completed or a worker has panicked.
    fn next(&self) -> Option<usize> {
        let mut s = self.lock();
        loop {
            if s.aborted {
                return None;
            }
            if let Some(Reverse(t)) = s.ready.pop() {
                return Some(t);
            }
            if s.left == 0 {
                return None;
            }
            s.idle += 1;
            s = self.cv.wait(s).unwrap_or_else(PoisonError::into_inner);
            s.idle -= 1;
        }
    }

    fn complete(&self, t: usize, dependents: &[Vec<usize>]) {
        let mut s = self.lock();
        s.left -= 1;
        for &d in &dependents[t] {
            s.pending[d] -= 1;
            if s.pending[d] == 0 {
                s.ready.push(Reverse(d));
            }
        }
        if s.idle > 0 {
            drop(s);
            self.cv.notify_all();
        }
    }
}

/// Held by each worker: if the worker panics (a missing key, a poisoned
/// lock) it aborts the queue, so the others stop and the panic propagates
/// out of the thread scope instead of deadlocking it.
struct AbortOnPanic<'q>(&'q Queue);

impl Drop for AbortOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.lock().aborted = true;
            self.0.cv.notify_all();
        }
    }
}

/// Emits a SEAL-style C++ function for a kernel (Figure 3f).
///
/// # Examples
///
/// ```
/// use porcupine::codegen::emit_seal_cpp;
/// use quill::program::{Instr, Program, ValRef};
///
/// let p = Program::new(
///     "pairsum", 1, 0,
///     vec![
///         Instr::RotCt(ValRef::Input(0), 1),
///         Instr::AddCtCt(ValRef::Input(0), ValRef::Instr(0)),
///     ],
///     ValRef::Instr(1),
/// );
/// let cpp = emit_seal_cpp(&p);
/// assert!(cpp.contains("ev.rotate_rows"));
/// assert!(cpp.contains("void pairsum"));
/// ```
pub fn emit_seal_cpp(prog: &Program) -> String {
    let mut out = String::new();
    let name = prog.name.replace('-', "_");
    let _ = writeln!(
        out,
        "// Generated by Porcupine: {} instructions, logic depth {}, mult depth {}",
        prog.len(),
        prog.logic_depth(),
        prog.mult_depth()
    );
    let _ = writeln!(out, "void {name}(");
    let _ = writeln!(out, "    seal::Evaluator &ev,");
    let _ = writeln!(out, "    seal::BatchEncoder &encoder,");
    let _ = writeln!(out, "    const seal::GaloisKeys &gal_keys,");
    let _ = writeln!(out, "    const seal::RelinKeys &relin_keys,");
    let _ = writeln!(out, "    const std::vector<seal::Ciphertext> &ct_in,");
    let _ = writeln!(out, "    const std::vector<seal::Plaintext> &pt_in,");
    let _ = writeln!(out, "    seal::Ciphertext &result) {{");

    // Pre-encode splat constants. SEAL's BatchEncoder only accepts values
    // in [0, t); the emitter does not know t, so negative constants are
    // encoded by magnitude and compensated at the use site (add ↔ sub;
    // multiply followed by a negation). Magnitudes are emitted verbatim —
    // a splat with |v| >= t would be rejected by SEAL at runtime, but
    // kernel constants are small filter weights, far below any usable t.
    let mut splats: Vec<u64> = prog
        .instrs
        .iter()
        .filter_map(|i| match i {
            Instr::AddCtPt(_, PtOperand::Splat(v))
            | Instr::SubCtPt(_, PtOperand::Splat(v))
            | Instr::MulCtPt(_, PtOperand::Splat(v)) => Some(v.unsigned_abs()),
            _ => None,
        })
        .collect();
    splats.sort_unstable();
    splats.dedup();
    for v in &splats {
        let ident = splat_ident(*v);
        let _ = writeln!(out, "    seal::Plaintext {ident};");
        let _ = writeln!(
            out,
            "    encoder.encode(std::vector<uint64_t>(encoder.slot_count(), {v}), {ident});"
        );
    }

    let val = |r: ValRef| -> String {
        match r {
            ValRef::Input(i) => format!("ct_in[{i}]"),
            ValRef::Instr(j) => format!("c{j}"),
        }
    };
    // (operand expression, whether the encoded constant's sign is flipped)
    let pt = |p: &PtOperand| -> (String, bool) {
        match p {
            PtOperand::Input(i) => (format!("pt_in[{i}]"), false),
            PtOperand::Splat(v) => (splat_ident(v.unsigned_abs()), *v < 0),
        }
    };
    for (j, instr) in prog.instrs.iter().enumerate() {
        // relin-ct lowers to SEAL's in-place relinearization on a copy of
        // the operand; every other instruction writes a fresh destination.
        if let Instr::Relin(a) = instr {
            let _ = writeln!(out, "    seal::Ciphertext c{j} = {};", val(*a));
            let _ = writeln!(out, "    ev.relinearize_inplace(c{j}, relin_keys);");
            continue;
        }
        let _ = writeln!(out, "    seal::Ciphertext c{j};");
        let line = match instr {
            Instr::AddCtCt(a, b) => format!("ev.add({}, {}, c{j});", val(*a), val(*b)),
            Instr::SubCtCt(a, b) => format!("ev.sub({}, {}, c{j});", val(*a), val(*b)),
            Instr::MulCtCt(a, b) => format!("ev.multiply({}, {}, c{j});", val(*a), val(*b)),
            Instr::AddCtPt(a, p) => {
                let (operand, negated) = pt(p);
                let op = if negated { "sub_plain" } else { "add_plain" };
                format!("ev.{op}({}, {operand}, c{j});", val(*a))
            }
            Instr::SubCtPt(a, p) => {
                let (operand, negated) = pt(p);
                let op = if negated { "add_plain" } else { "sub_plain" };
                format!("ev.{op}({}, {operand}, c{j});", val(*a))
            }
            Instr::MulCtPt(a, p) => {
                let (operand, negated) = pt(p);
                let negate = if negated {
                    format!("\n    ev.negate_inplace(c{j});")
                } else {
                    String::new()
                };
                format!("ev.multiply_plain({}, {operand}, c{j});{negate}", val(*a))
            }
            Instr::RotCt(a, r) => format!("ev.rotate_rows({}, {r}, gal_keys, c{j});", val(*a)),
            Instr::Relin(_) => unreachable!("handled above"),
        };
        let _ = writeln!(out, "    {line}");
    }
    let _ = writeln!(out, "    result = {};", val(prog.output));
    let _ = writeln!(out, "}}");
    out
}

fn splat_ident(v: u64) -> String {
    format!("splat_{v}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use test_support::{assert_backend_matches_interp, seeded_rng, small_ctx};

    fn run_and_compare(prog: &Program, model_n: usize, masked: &[usize]) {
        let ctx = small_ctx();
        let mut rng = seeded_rng(0xC0DE);
        let t = ctx.params().plain_modulus;
        assert_backend_matches_interp(&ctx, prog, model_n, masked, t, &mut rng);
    }

    #[test]
    fn backend_matches_interpreter_on_reduction() {
        // sum of 4 elements into slot 0 (masked), padded model of 8 slots.
        let prog = Program::new(
            "sum4",
            1,
            0,
            vec![
                Instr::RotCt(ValRef::Input(0), 2),
                Instr::AddCtCt(ValRef::Input(0), ValRef::Instr(0)),
                Instr::RotCt(ValRef::Instr(1), 1),
                Instr::AddCtCt(ValRef::Instr(1), ValRef::Instr(2)),
            ],
            ValRef::Instr(3),
        );
        // model inputs occupy 8 slots; data in first 4 would not be padded —
        // use mask slot 0 only and rely on random input across all 8 slots
        // matching circular semantics at both sizes? No: restrict to padded
        // data by masking slot 0 and keeping the model self-consistent.
        // Here inputs are random over all 8 model slots, so we must verify
        // padding stability does NOT hold for slots near the wrap; slot 0
        // reads slots 0..=3 only, which is fine.
        run_and_compare(&prog, 8, &[0]);
    }

    #[test]
    fn backend_matches_interpreter_with_multiply_and_pt() {
        let prog = Program::new(
            "mixed",
            2,
            1,
            vec![
                Instr::MulCtCt(ValRef::Input(0), ValRef::Input(1)),
                Instr::MulCtPt(ValRef::Instr(0), PtOperand::Input(0)),
                Instr::AddCtPt(ValRef::Instr(1), PtOperand::Splat(7)),
                Instr::RotCt(ValRef::Instr(2), 1),
                Instr::SubCtCt(ValRef::Instr(3), ValRef::Instr(2)),
            ],
            ValRef::Instr(4),
        );
        // slots 0..6 of an 8-slot model avoid the wrap read of slot 7.
        run_and_compare(&prog, 8, &[0, 1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn backend_handles_negative_rotations() {
        let prog = Program::new(
            "right-shift",
            1,
            0,
            vec![
                Instr::RotCt(ValRef::Input(0), -2),
                Instr::AddCtCt(ValRef::Input(0), ValRef::Instr(0)),
            ],
            ValRef::Instr(1),
        );
        // slot i reads i and i-2: valid for slots 2..8.
        run_and_compare(&prog, 8, &[2, 3, 4, 5, 6, 7]);
    }

    /// The same optimized kernel, executed by the same generic runner body
    /// on both scheme instantiations over one parameter set, decodes to
    /// identical slots — the codegen half of the cross-scheme contract.
    #[test]
    fn bgv_runner_matches_bfv_runner_slot_for_slot() {
        let prog = Program::new(
            "cross",
            2,
            0,
            vec![
                Instr::MulCtCt(ValRef::Input(0), ValRef::Input(1)),
                Instr::Relin(ValRef::Instr(0)),
                Instr::RotCt(ValRef::Instr(1), 1),
                Instr::AddCtCt(ValRef::Instr(1), ValRef::Instr(2)),
                Instr::AddCtPt(ValRef::Instr(3), PtOperand::Splat(-3)),
            ],
            ValRef::Instr(4),
        );

        fn run<S: Scheme>(prog: &Program, seed: u64) -> Vec<u64> {
            let ctx = S::context(rlwe_ring::params::RlweParams::test_small()).unwrap();
            let mut rng = seeded_rng(seed);
            let session = Session::<S>::new(&ctx, &[prog], &mut rng);
            let n = S::slot_count(session.runner.encoder());
            let a: Vec<u64> = (0..n as u64).map(|i| i % 31).collect();
            let b: Vec<u64> = (0..n as u64).map(|i| (7 * i + 2) % 29).collect();
            let (slots, budget) = session.run(prog, &[a, b], &[], &mut rng);
            assert!(budget > 0, "{} budget", S::ID);
            slots
        }

        let bfv_out = run::<BfvScheme>(&prog, 0x0DDB);
        let bgv_out = run::<BgvScheme>(&prog, 0x0DDB);
        assert_eq!(bfv_out, bgv_out, "cross-scheme slot divergence");
    }

    /// A program referencing one splat constant from several instructions
    /// encodes it exactly once on a fresh runner — and not at all on a
    /// second run, thanks to the session-level cache.
    #[test]
    fn runner_encodes_each_splat_constant_once() {
        let prog = Program::new(
            "splat-reuse",
            1,
            0,
            vec![
                Instr::AddCtPt(ValRef::Input(0), PtOperand::Splat(7)),
                Instr::MulCtPt(ValRef::Instr(0), PtOperand::Splat(7)),
                Instr::SubCtPt(ValRef::Instr(1), PtOperand::Splat(7)),
                Instr::AddCtPt(ValRef::Instr(2), PtOperand::Splat(3)),
            ],
            ValRef::Instr(3),
        );
        let ctx = small_ctx();
        let mut rng = seeded_rng(0x59A7);
        let session = Session::<BfvScheme>::new(&ctx, &[&prog], &mut rng);
        let ct = session.encrypt(&[1, 2, 3, 4], &mut rng);
        let runner = &session.runner;
        let cached = || runner.splats.borrow().keys().copied().collect::<Vec<i64>>();
        assert!(cached().is_empty(), "a fresh runner has encoded nothing");
        runner.run(&prog, &[&ct], &[]);
        assert_eq!(cached(), [3, 7], "two distinct constants, one encode each");
        runner.run(&prog, &[&ct], &[]);
        assert_eq!(cached(), [3, 7], "second run hits the session cache");
    }

    /// A same-source rotation fan goes down the hoisted path; the
    /// interpreter comparison pins its slot semantics.
    #[test]
    fn backend_matches_interpreter_on_rotation_fan() {
        // box-blur shape: three rotations of the same source, then sums.
        let prog = Program::new(
            "fan3",
            1,
            0,
            vec![
                Instr::RotCt(ValRef::Input(0), 1),
                Instr::RotCt(ValRef::Input(0), 2),
                Instr::RotCt(ValRef::Input(0), 3),
                Instr::AddCtCt(ValRef::Instr(0), ValRef::Instr(1)),
                Instr::AddCtCt(ValRef::Instr(3), ValRef::Instr(2)),
            ],
            ValRef::Instr(4),
        );
        // slot i reads i..=i+3: valid for slots 0..5 of an 8-slot model.
        run_and_compare(&prog, 8, &[0, 1, 2, 3, 4]);
    }

    /// The DAG-parallel scheduler decrypts bit-identically to sequential
    /// execution — same plaintext polynomial, not merely the same slots —
    /// across thread counts, on a program exercising every instruction
    /// kind plus a hoisted rotation fan.
    #[test]
    fn parallel_runner_is_bit_identical_to_sequential() {
        let prog = Program::new(
            "par-mix",
            2,
            0,
            vec![
                Instr::RotCt(ValRef::Input(0), 1),
                Instr::RotCt(ValRef::Input(0), 2),
                Instr::MulCtCt(ValRef::Instr(0), ValRef::Instr(1)),
                Instr::Relin(ValRef::Instr(2)),
                Instr::MulCtPt(ValRef::Instr(3), PtOperand::Splat(5)),
                Instr::SubCtCt(ValRef::Instr(4), ValRef::Input(1)),
                Instr::RotCt(ValRef::Instr(5), -1),
                Instr::AddCtPt(ValRef::Instr(6), PtOperand::Splat(-2)),
                Instr::AddCtCt(ValRef::Instr(7), ValRef::Instr(7)),
            ],
            ValRef::Instr(8),
        );
        let ctx = small_ctx();
        let mut rng = seeded_rng(0xDA61);
        let session = Session::<BfvScheme>::new(&ctx, &[], &mut rng);
        let decryptor = &session.decryptor;
        let make = |jobs| {
            BfvRunner::for_programs(&ctx, &session.keygen, &[&prog], &mut seeded_rng(0))
                .with_eval_jobs(jobs)
        };
        let runner1 = make(1);
        let n = runner1.encoder().slot_count();
        let a: Vec<u64> = (0..n as u64).map(|i| (3 * i + 1) % 17).collect();
        let b: Vec<u64> = (0..n as u64).map(|i| (5 * i + 4) % 13).collect();
        let ca = session.encrypt(&a, &mut rng);
        let cb = session.encrypt(&b, &mut rng);
        let baseline = decryptor.decrypt(&runner1.run(&prog, &[&ca, &cb], &[]));
        for jobs in [2usize, 4] {
            let runner = make(jobs);
            assert_eq!(runner.eval_jobs(), jobs);
            // Repeat to let different schedules actually happen.
            for round in 0..3 {
                let out = runner.run(&prog, &[&ca, &cb], &[]);
                assert_eq!(
                    decryptor.decrypt(&out).coeffs(),
                    baseline.coeffs(),
                    "jobs={jobs} round={round} diverged from sequential"
                );
            }
        }
    }

    /// Two rotation fans — one over an input, one over an instruction —
    /// whose members interleave with other instructions.
    fn two_fan_program() -> Program {
        Program::new(
            "two-fans",
            2,
            0,
            vec![
                Instr::AddCtCt(ValRef::Input(0), ValRef::Input(1)),
                Instr::RotCt(ValRef::Instr(0), 1),
                Instr::RotCt(ValRef::Input(0), 1),
                Instr::RotCt(ValRef::Instr(0), 2),
                Instr::AddCtCt(ValRef::Instr(1), ValRef::Instr(3)),
                Instr::RotCt(ValRef::Input(0), 3),
                Instr::AddCtCt(ValRef::Instr(4), ValRef::Instr(5)),
                Instr::AddCtCt(ValRef::Instr(6), ValRef::Instr(2)),
            ],
            ValRef::Instr(7),
        )
    }

    fn uses_of(plan: &Plan, prog: &Program, r: ValRef) -> usize {
        plan.uses[value_index(prog.num_ct_inputs, r)]
    }

    #[test]
    fn plan_counts_an_aliased_operand_twice() {
        let prog = Program::new(
            "aliased",
            1,
            0,
            vec![
                Instr::AddCtCt(ValRef::Input(0), ValRef::Input(0)),
                Instr::AddCtCt(ValRef::Instr(0), ValRef::Instr(0)),
                Instr::RotCt(ValRef::Instr(1), 1),
            ],
            ValRef::Instr(2),
        );
        let plan = Plan::new(&prog);
        assert_eq!(uses_of(&plan, &prog, ValRef::Input(0)), 2);
        assert_eq!(uses_of(&plan, &prog, ValRef::Instr(0)), 2);
        // Both occurrences are dependency edges too.
        assert_eq!(plan.pending[1], 2);
    }

    #[test]
    fn plan_pins_a_use_on_the_output() {
        let prog = two_fan_program();
        let plan = Plan::new(&prog);
        // Instruction 6 has one reader; the output has none but its pin.
        assert_eq!(uses_of(&plan, &prog, ValRef::Instr(6)), 1);
        assert_eq!(uses_of(&plan, &prog, ValRef::Instr(7)), 1);
        let echo = Program::new("echo", 1, 0, vec![], ValRef::Input(0));
        assert_eq!(uses_of(&Plan::new(&echo), &echo, ValRef::Input(0)), 1);
    }

    #[test]
    fn plan_gives_a_fan_source_one_use_for_its_hoist_task() {
        let prog = two_fan_program();
        let plan = Plan::new(&prog);
        assert_eq!(plan.fans.len(), 2);
        // Instruction 0: two fan members plus the hoist task.
        assert_eq!(uses_of(&plan, &prog, ValRef::Instr(0)), 3);
        // Input 0: instruction 0, two fan members plus the hoist task.
        assert_eq!(uses_of(&plan, &prog, ValRef::Input(0)), 4);
        assert_eq!(uses_of(&plan, &prog, ValRef::Input(1)), 1);
    }

    #[test]
    fn plan_fan_members_wait_only_on_their_hoist_task() {
        let prog = two_fan_program();
        let plan = Plan::new(&prog);
        let rank = |task| plan.tasks.iter().position(|&t| t == task).expect("planned");
        for (f, fan) in plan.fans.iter().enumerate() {
            for &j in &fan.members {
                let member = rank(Task::Instr(j));
                assert_eq!(plan.pending[member], 1, "member {j}");
                let waited_on: Vec<usize> = (0..plan.tasks.len())
                    .filter(|&t| plan.dependents[t].contains(&member))
                    .collect();
                assert_eq!(waited_on, vec![rank(Task::Hoist(f))], "member {j}");
            }
        }
    }

    #[test]
    fn one_worker_runs_program_order_with_hoists_just_before_their_fans() {
        let prog = two_fan_program();
        let plan = Plan::new(&prog);
        let queue = Queue::new(plan.pending.clone());
        let mut order = Vec::new();
        while let Some(t) = queue.next() {
            order.push(plan.tasks[t]);
            queue.complete(t, &plan.dependents);
        }
        use Task::{Hoist, Instr as I};
        let expected = [
            I(0),
            Hoist(0),
            I(1),
            Hoist(1),
            I(2),
            I(3),
            I(4),
            I(5),
            I(6),
            I(7),
        ];
        assert_eq!(order, expected);
    }

    /// A worker that panics (here: a `relin-ct` on a runner prepared
    /// without a relin key) aborts the queue, and its own message reaches
    /// the caller — from worker 0 on the caller's thread as from a helper —
    /// instead of the run deadlocking.
    #[test]
    fn worker_panic_propagates_without_deadlock() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        use std::time::Duration;

        for jobs in [1usize, 2] {
            let (tx, rx) = std::sync::mpsc::channel();
            std::thread::spawn(move || {
                let squares = Program::new(
                    "squares",
                    2,
                    0,
                    vec![
                        Instr::MulCtCt(ValRef::Input(0), ValRef::Input(0)),
                        Instr::Relin(ValRef::Instr(0)),
                        Instr::MulCtCt(ValRef::Input(1), ValRef::Input(1)),
                        Instr::Relin(ValRef::Instr(2)),
                        Instr::AddCtCt(ValRef::Instr(1), ValRef::Instr(3)),
                    ],
                    ValRef::Instr(4),
                );
                let adds = Program::new(
                    "adds",
                    2,
                    0,
                    vec![Instr::AddCtCt(ValRef::Input(0), ValRef::Input(1))],
                    ValRef::Instr(0),
                );
                let ctx = small_ctx();
                let mut rng = seeded_rng(0x9A1C);
                let mut session = Session::<BfvScheme>::new(&ctx, &[&adds], &mut rng);
                session.runner = session.runner.with_eval_jobs(jobs);
                let ct = session.encrypt(&[1, 2, 3], &mut rng);
                let payload = catch_unwind(AssertUnwindSafe(|| {
                    session.runner.run(&squares, &[&ct, &ct], &[]);
                }))
                .expect_err("relin-ct ran without a relin key");
                let message = payload
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()));
                let _ = tx.send(message.unwrap_or_default());
            });
            let message = rx
                .recv_timeout(Duration::from_secs(120))
                .unwrap_or_else(|_| panic!("eval_jobs={jobs}: run deadlocked"));
            assert!(
                message.contains("relin key prepared for relin-ct"),
                "eval_jobs={jobs}: unexpected panic {message:?}"
            );
        }
    }

    /// The value-level path decodes to the interpreter's slots on every
    /// scheme, with budget to spare.
    #[test]
    fn run_encrypted_matches_the_interpreter_on_every_scheme() {
        let prog = Program::new(
            "mul-rot",
            2,
            1,
            vec![
                Instr::MulCtCt(ValRef::Input(0), ValRef::Input(1)),
                Instr::Relin(ValRef::Instr(0)),
                Instr::RotCt(ValRef::Instr(1), 1),
                Instr::MulCtPt(ValRef::Instr(2), PtOperand::Input(0)),
                Instr::AddCtPt(ValRef::Instr(3), PtOperand::Splat(-4)),
            ],
            ValRef::Instr(4),
        );
        let params = rlwe_ring::params::RlweParams::test_small();
        let t = params.plain_modulus;
        let mut rng = seeded_rng(0x5E55);
        let model = test_support::sample_model_inputs(3, 8, 64, &mut rng);
        let (ct_model, pt_model) = model.split_at(2);
        let expected = quill::interp::eval_concrete(&prog, ct_model, pt_model, t);
        for &scheme in SchemeId::ALL {
            let (slots, budget) = run_encrypted(
                scheme,
                params.clone(),
                &prog,
                ct_model,
                pt_model,
                NonZeroUsize::MIN,
                &mut seeded_rng(7),
            )
            .expect("test parameters are valid");
            assert!(budget > 0, "{scheme}: budget exhausted ({budget})");
            // Slot 7 reads the zero padding past the 8-slot model.
            assert_eq!(slots[..7], expected[..7], "{scheme}");
        }
    }

    #[test]
    fn run_encrypted_rejects_unusable_parameters() {
        let params = rlwe_ring::params::RlweParams {
            poly_degree: 1000,
            ..rlwe_ring::params::RlweParams::test_small()
        };
        let echo = Program::new("echo", 1, 0, vec![], ValRef::Input(0));
        for &scheme in SchemeId::ALL {
            let result = run_encrypted(
                scheme,
                params.clone(),
                &echo,
                &[vec![1]],
                &[],
                NonZeroUsize::MIN,
                &mut seeded_rng(0),
            );
            assert!(result.is_err(), "{scheme}: N = 1000 accepted");
        }
    }

    #[test]
    fn session_without_programs_roundtrips_a_plaintext() {
        let ctx = small_ctx();
        let mut rng = seeded_rng(17);
        let session = Session::<BfvScheme>::new(&ctx, &[], &mut rng);
        let v: Vec<u64> = (0..session.runner.encoder().slot_count() as u64).collect();
        let (slots, budget) = session.decrypt(&session.encrypt(&v, &mut rng));
        assert_eq!(slots, v);
        assert!(budget > 0);
    }

    #[test]
    fn seal_emission_contains_all_ops() {
        let prog = Program::new(
            "demo-kernel",
            1,
            1,
            vec![
                Instr::RotCt(ValRef::Input(0), -5),
                Instr::AddCtCt(ValRef::Input(0), ValRef::Instr(0)),
                Instr::MulCtCt(ValRef::Instr(1), ValRef::Instr(1)),
                Instr::Relin(ValRef::Instr(2)),
                Instr::MulCtPt(ValRef::Instr(3), PtOperand::Splat(2)),
                Instr::SubCtPt(ValRef::Instr(4), PtOperand::Input(0)),
            ],
            ValRef::Instr(5),
        );
        let cpp = emit_seal_cpp(&prog);
        assert!(cpp.contains("void demo_kernel"));
        assert!(cpp.contains("ev.rotate_rows(ct_in[0], -5, gal_keys, c0);"));
        // The multiply is bare; the relinearization is its own statement,
        // exactly where the IR placed it.
        assert!(cpp.contains("ev.multiply(c1, c1, c2);"));
        assert!(cpp.contains("seal::Ciphertext c3 = c2;"));
        assert!(cpp.contains("ev.relinearize_inplace(c3, relin_keys);"));
        assert!(cpp.contains("splat_2"));
        assert!(cpp.contains("ev.sub_plain(c4, pt_in[0], c5);"));
        assert!(cpp.contains("result = c5;"));
    }

    /// Without an explicit `relin-ct` the emitter must not invent one —
    /// relinearization placement is the middle-end's decision.
    #[test]
    fn seal_emission_has_no_implicit_relinearization() {
        let prog = Program::new(
            "raw-mul",
            2,
            0,
            vec![Instr::MulCtCt(ValRef::Input(0), ValRef::Input(1))],
            ValRef::Instr(0),
        );
        let cpp = emit_seal_cpp(&prog);
        assert!(cpp.contains("ev.multiply(ct_in[0], ct_in[1], c0);"));
        assert!(!cpp.contains("relinearize_inplace"));
    }

    /// SEAL's `BatchEncoder` rejects values outside `[0, t)`, so negative
    /// splats must be encoded by magnitude with compensating operations.
    #[test]
    fn seal_emission_compensates_negative_splats() {
        let prog = Program::new(
            "neg-splats",
            1,
            0,
            vec![
                Instr::AddCtPt(ValRef::Input(0), PtOperand::Splat(-7)),
                Instr::SubCtPt(ValRef::Instr(0), PtOperand::Splat(-7)),
                Instr::MulCtPt(ValRef::Instr(1), PtOperand::Splat(-3)),
            ],
            ValRef::Instr(2),
        );
        let cpp = emit_seal_cpp(&prog);
        // Only non-negative magnitudes ever reach encoder.encode.
        assert!(cpp.contains("encoder.encode(std::vector<uint64_t>(encoder.slot_count(), 7)"));
        assert!(cpp.contains("encoder.encode(std::vector<uint64_t>(encoder.slot_count(), 3)"));
        assert!(!cpp.contains("-7"));
        assert!(!cpp.contains("-3"));
        // add +(-7) lowers to sub_plain, sub -(-7) to add_plain.
        assert!(cpp.contains("ev.sub_plain(ct_in[0], splat_7, c0);"));
        assert!(cpp.contains("ev.add_plain(c0, splat_7, c1);"));
        // mul by -3 multiplies by the magnitude then negates.
        assert!(cpp.contains("ev.multiply_plain(c1, splat_3, c2);"));
        assert!(cpp.contains("ev.negate_inplace(c2);"));
    }
}

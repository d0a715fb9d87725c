#!/usr/bin/env bash
# Two runs of each shipped scenario, in two directories, with one and
# with two OpenBLAS threads, must write the same diagnostics CSV byte
# for byte, and so must two runs of large data at the shipped dt (a
# 33^2 bump of velocity amplitude 20 at dt 0.02 to t 0.2, which needs
# Newton's heat system to converge) and two runs of a 129^2 bump for
# two steps (its preconditioners' per-axis products, which work on
# the folded halves of each axis there, are large enough for
# OpenBLAS to thread; the shipped 33^2 ones are not).  The 129^2 pair
# agrees on a 2-vCPU AVX-512 host with OpenBLAS 0.3.31; whether it
# agrees on GitHub's runners, whose CPUs vary, is unverified.  So
# must two runs of the spatial and of the temporal convergence ladder, and of
# the 3-D spatial ladder (9^3 to 33^3, about a minute each), write the
# same report, two perturbed twin runs the same Gronwall report, two
# bump2d runs with snapshots every 10 steps the same VTK files and
# checkpoints, and two `kvsim norms` passes over those checkpoints the
# same norms.  A bump2d run at dt 0.03 to t 0.1, whose last step is
# shortened to 0.01, must write the same checkpoints at both thread
# counts, and `kvsim norms` must accept them and print the same norms.
# The 129^2 bump writes a checkpoint at each step; resumed from its
# step-1 checkpoint, it must write the whole run's step-2 row: the
# resumed step forms every product afresh, where the whole run takes
# the velocity product and the displacement strains from step 1.
# Every comparison runs even after one differs; the script then exits 1
# and names each pair that differed.  Any other command that fails stops
# it, as in a workflow step.
#
# Run it from any directory as `bash ci/reruns.sh`: it works at the root
# of the repository, where it leaves rerun-a/ and rerun-b/.
set -eo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH="$PWD/src"
differ=()
same_bytes() { cmp "$1" "$2" || differ+=("$1 and $2"); }
mkdir -p rerun-a rerun-b
for cfg in "$PWD"/src/kvsim/scenarios/*.cfg; do
  name=$(basename "$cfg" .cfg)
  (cd rerun-a && OPENBLAS_NUM_THREADS=1 python -m kvsim.cli_io run --config "$cfg")
  (cd rerun-b && OPENBLAS_NUM_THREADS=2 python -m kvsim.cli_io run --config "$cfg")
  same_bytes "rerun-a/out/$name.csv" "rerun-b/out/$name.csv"
done
sed -e 's/^velocity_amplitude = 0.2$/velocity_amplitude = 20/' \
    -e 's/^t_end = 1.0$/t_end = 0.2/' \
    -e 's|^csv = out/bump2d.csv$|csv = out/large.csv|' \
    "$PWD/src/kvsim/scenarios/bump2d.cfg" > rerun-a/large.cfg
grep -q '^velocity_amplitude = 20$' rerun-a/large.cfg
grep -q '^t_end = 0.2$' rerun-a/large.cfg
cp rerun-a/large.cfg rerun-b/large.cfg
(cd rerun-a && OPENBLAS_NUM_THREADS=1 python -m kvsim.cli_io run --config large.cfg)
(cd rerun-b && OPENBLAS_NUM_THREADS=2 python -m kvsim.cli_io run --config large.cfg)
same_bytes rerun-a/out/large.csv rerun-b/out/large.csv
sed -e 's/^nodes = 33 33$/nodes = 129 129/' \
    -e 's/^t_end = 1.0$/t_end = 0.04/' \
    -e 's/^snapshot_every = 0$/snapshot_every = 1/' \
    -e 's|^csv = out/bump2d.csv$|csv = out/fine.csv|' \
    -e 's|^snapshot_prefix = .*$|snapshot_prefix = out/fine_|' \
    "$PWD/src/kvsim/scenarios/bump2d.cfg" > rerun-a/fine.cfg
grep -q '^nodes = 129 129$' rerun-a/fine.cfg
grep -q '^t_end = 0.04$' rerun-a/fine.cfg
grep -q '^snapshot_every = 1$' rerun-a/fine.cfg
grep -q '^snapshot_prefix = out/fine_$' rerun-a/fine.cfg
cp rerun-a/fine.cfg rerun-b/fine.cfg
(cd rerun-a && OPENBLAS_NUM_THREADS=1 python -m kvsim.cli_io run --config fine.cfg)
(cd rerun-b && OPENBLAS_NUM_THREADS=2 python -m kvsim.cli_io run --config fine.cfg)
same_bytes rerun-a/out/fine.csv rerun-b/out/fine.csv
sed -e 's|^preset = bump$|preset = checkpoint:out/fine_000001.ckpt|' \
    -e '/^theta0 = /d' -e '/^velocity_amplitude = /d' \
    -e '/^theta_amplitude = /d' \
    -e 's/^snapshot_every = 1$/snapshot_every = 0/' \
    -e 's|^csv = out/fine.csv$|csv = out/fine-resumed.csv|' \
    rerun-a/fine.cfg > rerun-a/fine-resume.cfg
grep -q '^preset = checkpoint:out/fine_000001.ckpt$' rerun-a/fine-resume.cfg
(cd rerun-a && OPENBLAS_NUM_THREADS=1 python -m kvsim.cli_io run --config fine-resume.cfg)
tail -n +3 rerun-a/out/fine-resumed.csv > rerun-a/fine-resumed-row.csv
tail -n +4 rerun-a/out/fine.csv > rerun-a/fine-whole-row.csv
same_bytes rerun-a/fine-resumed-row.csv rerun-a/fine-whole-row.csv
OPENBLAS_NUM_THREADS=1 python -m kvsim.cli_io mms --mode spatial --out rerun-a/mms-spatial.txt
OPENBLAS_NUM_THREADS=2 python -m kvsim.cli_io mms --mode spatial --out rerun-b/mms-spatial.txt
same_bytes rerun-a/mms-spatial.txt rerun-b/mms-spatial.txt
OPENBLAS_NUM_THREADS=1 python -m kvsim.cli_io mms --mode temporal --out rerun-a/mms-temporal.txt
OPENBLAS_NUM_THREADS=2 python -m kvsim.cli_io mms --mode temporal --out rerun-b/mms-temporal.txt
same_bytes rerun-a/mms-temporal.txt rerun-b/mms-temporal.txt
OPENBLAS_NUM_THREADS=1 python -m kvsim.cli_io mms --mode spatial --dimension 3 --levels 3 --out rerun-a/mms-spatial-3d.txt
OPENBLAS_NUM_THREADS=2 python -m kvsim.cli_io mms --mode spatial --dimension 3 --levels 3 --out rerun-b/mms-spatial-3d.txt
same_bytes rerun-a/mms-spatial-3d.txt rerun-b/mms-spatial-3d.txt
heated="$PWD/src/kvsim/scenarios/heated2d.cfg"
OPENBLAS_NUM_THREADS=1 python -m kvsim.cli_io perturb --config "$heated" --delta 1e-6 --out rerun-a/gronwall.csv
OPENBLAS_NUM_THREADS=2 python -m kvsim.cli_io perturb --config "$heated" --delta 1e-6 --out rerun-b/gronwall.csv
same_bytes rerun-a/gronwall.csv rerun-b/gronwall.csv
sed 's/^snapshot_every = 0$/snapshot_every = 10/' "$PWD/src/kvsim/scenarios/bump2d.cfg" > rerun-a/norms.cfg
cp rerun-a/norms.cfg rerun-b/norms.cfg
(cd rerun-a && OPENBLAS_NUM_THREADS=1 python -m kvsim.cli_io run --config norms.cfg)
(cd rerun-b && OPENBLAS_NUM_THREADS=2 python -m kvsim.cli_io run --config norms.cfg)
for snap in rerun-a/out/bump2d_*.vtk rerun-a/out/bump2d_*.ckpt; do
  same_bytes "$snap" "rerun-b/out/${snap#rerun-a/out/}"
done
(cd rerun-a && OPENBLAS_NUM_THREADS=1 python -m kvsim.cli_io norms --traj 'out/bump2d_*.ckpt' > norms-1.txt)
(cd rerun-a && OPENBLAS_NUM_THREADS=2 python -m kvsim.cli_io norms --traj 'out/bump2d_*.ckpt' > norms-2.txt)
same_bytes rerun-a/norms-1.txt rerun-a/norms-2.txt
# resumed from its step-20 checkpoint, bump2d writes the whole
# run's rows from step 21 on (its first row is the checkpoint's)
sed -e 's|^preset = bump$|preset = checkpoint:out/bump2d_000020.ckpt|' \
    -e '/^theta0 = /d' -e '/^velocity_amplitude = /d' \
    -e '/^theta_amplitude = /d' \
    -e 's|^csv = out/bump2d.csv$|csv = out/resumed.csv|' \
    "$PWD/src/kvsim/scenarios/bump2d.cfg" > rerun-a/resume.cfg
grep -q '^preset = checkpoint:out/bump2d_000020.ckpt$' rerun-a/resume.cfg
(cd rerun-a && OPENBLAS_NUM_THREADS=1 python -m kvsim.cli_io run --config resume.cfg)
tail -n +3 rerun-a/out/resumed.csv > rerun-a/resumed-rows.csv
tail -n +23 rerun-a/out/bump2d.csv > rerun-a/whole-rows.csv
same_bytes rerun-a/resumed-rows.csv rerun-a/whole-rows.csv
sed -e 's/^dt = 0.02$/dt = 0.03/' \
    -e 's/^t_end = 1.0$/t_end = 0.1/' \
    -e 's/^snapshot_every = 0$/snapshot_every = 1/' \
    -e 's|^csv = out/bump2d.csv$|csv = out/short.csv|' \
    -e 's|^snapshot_prefix = .*$|snapshot_prefix = out/short_|' \
    "$PWD/src/kvsim/scenarios/bump2d.cfg" > rerun-a/short.cfg
grep -q '^dt = 0.03$' rerun-a/short.cfg
grep -q '^t_end = 0.1$' rerun-a/short.cfg
grep -q '^snapshot_prefix = out/short_$' rerun-a/short.cfg
cp rerun-a/short.cfg rerun-b/short.cfg
(cd rerun-a && OPENBLAS_NUM_THREADS=1 python -m kvsim.cli_io run --config short.cfg)
(cd rerun-b && OPENBLAS_NUM_THREADS=2 python -m kvsim.cli_io run --config short.cfg)
for snap in rerun-a/out/short_*.ckpt; do
  same_bytes "$snap" "rerun-b/out/${snap#rerun-a/out/}"
done
(cd rerun-a && OPENBLAS_NUM_THREADS=1 python -m kvsim.cli_io norms --traj 'out/short_*.ckpt' > short-norms-1.txt)
(cd rerun-b && OPENBLAS_NUM_THREADS=2 python -m kvsim.cli_io norms --traj 'out/short_*.ckpt' > short-norms-2.txt)
same_bytes rerun-a/short-norms-1.txt rerun-b/short-norms-2.txt
if [ ${#differ[@]} -gt 0 ]; then
  printf 'differ: %s\n' "${differ[@]}"
  exit 1
fi

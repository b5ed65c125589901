#!/usr/bin/env bash
# Records untraced result sets for `-compare`: RUNS runs of every workload
# into each DIR, run i using seed FIRST_SEED+i in every set, alternating
# which set runs first. Run from the repository root:
#
#     bash bench/record.sh 10 20 bench/results/set-a bench/results/set-b
#
# Usage: record.sh RUNS SECONDS DIR... (FIRST_SEED defaults to 101)
set -euo pipefail

runs=$1 seconds=$2
shift 2
sets=("$@")
first_seed=${FIRST_SEED:-101}
workloads=(trials-small broadcast-large census-sparse census-checked)

for ((i = 0; i < runs; i++)); do
	seed=$((first_seed + i))
	order=("${sets[@]}")
	if ((i % 2 == 1)); then
		order=()
		for ((j = ${#sets[@]} - 1; j >= 0; j--)); do order+=("${sets[j]}"); done
	fi
	for w in "${workloads[@]}"; do
		for dir in "${order[@]}"; do
			mkdir -p "$dir/$w"
			bash bench/run.sh --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 >"$dir/$w/seed-$seed.json"
		done
	done
done

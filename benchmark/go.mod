module boxes/benchmark

go 1.22

require boxes v0.0.0

replace boxes => ../

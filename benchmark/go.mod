module flexio/benchmark

go 1.22

require flexio v0.0.0

replace flexio => ../

module simsearch/benchmark

go 1.22

require simsearch v0.0.0

replace simsearch => ../

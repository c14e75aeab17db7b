module whereroam/bench

go 1.24

require whereroam v0.0.0

replace whereroam => ../
